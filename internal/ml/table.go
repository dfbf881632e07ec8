package ml

import "slices"

// Table holds labeled examples in row form: each feature name is given a
// row once, and an example is a run of (row, value) cells. A caller that
// featurizes many examples over a few names builds no map and no name per
// example.
type Table struct {
	names  []string // each row's feature name
	row    map[string]int32
	rows   []int32 // the cells of every example, in order
	vals   []float64
	ends   []int // ends[i]: where example i's cells end
	labels []bool
}

// Row returns the row of a feature name, giving it the next row on first
// sight.
func (t *Table) Row(name string) int32 {
	if r, ok := t.row[name]; ok {
		return r
	}
	if t.row == nil {
		t.row = map[string]int32{}
	}
	r := int32(len(t.names))
	t.names = append(t.names, name)
	t.row[name] = r
	return r
}

// Grow makes room for examples more examples holding cells more cells.
func (t *Table) Grow(examples, cells int) {
	t.ends, t.labels = slices.Grow(t.ends, examples), slices.Grow(t.labels, examples)
	t.rows, t.vals = slices.Grow(t.rows, cells), slices.Grow(t.vals, cells)
}

// Set gives a row a value in the example being built. A row set twice in
// one example keeps the later value, as a Features map would.
func (t *Table) Set(row int32, v float64) {
	for k := t.start(len(t.ends)); k < len(t.rows); k++ {
		if t.rows[k] == row {
			t.vals[k] = v
			return
		}
	}
	t.rows = append(t.rows, row)
	t.vals = append(t.vals, v)
}

// End closes the example being built with its label.
func (t *Table) End(label bool) {
	t.ends = append(t.ends, len(t.rows))
	t.labels = append(t.labels, label)
}

// start is where example i's cells begin.
func (t *Table) start(i int) int {
	if i == 0 {
		return 0
	}
	return t.ends[i-1]
}

// tableOf resolves the feature names of map examples to rows.
func tableOf(examples []Example) *Table {
	t := &Table{}
	t.Grow(len(examples), 0)
	for _, ex := range examples {
		for name, v := range ex.Features {
			t.rows = append(t.rows, t.Row(name))
			t.vals = append(t.vals, v)
		}
		t.End(ex.Label)
	}
	return t
}

// examples is the table as feature maps.
func (t *Table) examples() []Example {
	out := make([]Example, len(t.ends))
	for i := range out {
		f := Features{}
		for k := t.start(i); k < t.ends[i]; k++ {
			f[t.names[t.rows[k]]] = t.vals[k]
		}
		out[i] = Example{Features: f, Label: t.labels[i]}
	}
	return out
}
