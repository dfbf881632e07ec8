package dedup

import (
	"slices"
	"strings"

	"repro/internal/ml"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/textutil"
)

// Featurizer turns a record pair into the similarity feature vector the
// match classifier consumes. Attrs limits which attributes contribute;
// when empty, the union of the pair's attributes is used.
type Featurizer struct {
	Attrs []string
}

// Features computes the pair's feature vector: per-attribute Jaro-Winkler,
// trigram and token-set similarities, plus structural features (shared
// attribute fraction, exact-equality fraction).
func (f Featurizer) Features(a, b *record.Record) ml.Features {
	return newScorer(f, nil).features(a, b)
}

// The four similarity features of one attribute; a feature's name is its
// prefix followed by the normalized attribute name.
const (
	featJW = iota
	featTri
	featTok
	featNum
	featKinds
)

var featPrefix = [featKinds]string{"jw:", "tri:", "tok:", "num:"}

const (
	featShared = "sharedFrac"
	featExact  = "exactFrac"
)

// attrRows are the model rows of one attribute's features.
type attrRows [featKinds]int32

// scorer is a Featurizer bound to a model: the attribute keys and the model
// row of every feature, resolved once. It is immutable, so one scorer serves
// concurrent callers; what changes per call lives in the profiles and the
// pairVector the caller owns. A scorer bound to a training table instead
// resolves rows in the table, and is not for concurrent use.
type scorer struct {
	attrs []scorerAttr // Featurizer.Attrs, repeats of one key folded
	total int          // len(Featurizer.Attrs)
	model ml.Classifier
	index ml.Indexed // model, when it implements ml.Indexed
	rows  rowNamer   // index or a training table; nil leaves every row 0

	sharedRow, exactRow int32
}

// rowNamer resolves a feature name, prefix + key, to its row.
type rowNamer interface {
	Row(name string) int32
}

type scorerAttr struct {
	name   string // as Featurizer.Attrs spells it
	key    string // record.NormalizeName(name)
	weight int    // how many of Featurizer.Attrs normalize to key
	rows   attrRows
}

func newScorer(f Featurizer, model ml.Classifier) *scorer {
	index, _ := model.(ml.Indexed)
	if index == nil {
		return bindScorer(f, model, nil, nil)
	}
	return bindScorer(f, model, index, index)
}

func bindScorer(f Featurizer, model ml.Classifier, index ml.Indexed, rows rowNamer) *scorer {
	sc := &scorer{model: model, index: index, rows: rows, total: len(f.Attrs)}
	for _, attr := range f.Attrs {
		key := record.NormalizeName(attr)
		if i := slices.IndexFunc(sc.attrs, func(a scorerAttr) bool { return a.key == key }); i >= 0 {
			sc.attrs[i].weight++
			continue
		}
		sc.attrs = append(sc.attrs, scorerAttr{name: attr, key: key, weight: 1, rows: sc.rowsOf(key)})
	}
	if sc.rows != nil {
		sc.sharedRow, sc.exactRow = sc.rows.Row(featShared), sc.rows.Row(featExact)
	}
	return sc
}

func (sc *scorer) rowsOf(key string) (rows attrRows) {
	if sc.rows != nil {
		for k, prefix := range featPrefix {
			rows[k] = sc.rows.Row(prefix + key)
		}
	}
	return rows
}

// valueProfile is everything the similarity features read from one value,
// computed once per record instead of once per candidate pair.
type valueProfile struct {
	norm     string   // textutil.Normalize of the value
	runes    []rune   // of norm
	trigrams []uint64 // similarity.Trigrams(runes)
	tokens   []string // distinct content words of norm, sorted
	num      float64  // the value's numeric reading
	hasNum   bool
}

func profileValue(v record.Value) valueProfile {
	p := valueProfile{norm: textutil.Normalize(v.Str())}
	p.runes = []rune(p.norm)
	p.trigrams = similarity.Trigrams(p.runes)
	p.tokens = similarity.SortedSet(textutil.ContentWords(p.norm))
	p.num, p.hasNum = v.AsFloat()
	return p
}

// attrProfile is one attribute of one record.
type attrProfile struct {
	key  string // normalized attribute name
	rows attrRows
	set  bool // the record holds a non-null value
	valueProfile
}

// recordProfile is one record under a scorer. With Featurizer.Attrs it is
// parallel to scorer.attrs; without, it lists every field sorted by key.
type recordProfile []attrProfile

// profiler builds the profiles of one Run or one wrapper call. It is not for
// concurrent use: with no Featurizer.Attrs it remembers the key and model
// rows of each field name it has met, as spelled; with a memo it profiles
// each distinct value once.
type profiler struct {
	sc    *scorer
	names map[string]profiledName
	memo  *valueMemo
}

// valueMemo holds the profile of each value met, keyed by what
// profileValue reads of it: its Kind and Str.
type valueMemo struct {
	profiles map[string]valueProfile
	key      []byte // Kind, then Str
}

func (m *valueMemo) profile(v record.Value) valueProfile {
	m.key = v.AppendStr(append(m.key[:0], byte(v.Kind())))
	p, ok := m.profiles[string(m.key)]
	if !ok {
		p = profileValue(v)
		m.profiles[string(m.key)] = p
	}
	return p
}

func (pr *profiler) value(v record.Value) valueProfile {
	if pr.memo != nil {
		return pr.memo.profile(v)
	}
	return profileValue(v)
}

// profiledName is what a profiler resolves once per field name.
type profiledName struct {
	key  string // record.NormalizeName of the name
	rows attrRows
}

// profile builds a new profile, never nil, even of a record with no fields.
func (pr *profiler) profile(r *record.Record) recordProfile {
	return pr.profileInto(recordProfile{}, r)
}

// profileInto is profile into p's storage.
func (pr *profiler) profileInto(p recordProfile, r *record.Record) recordProfile {
	sc := pr.sc
	if sc.total > 0 {
		p = slices.Grow(p[:0], len(sc.attrs))[:len(sc.attrs)]
		for i, attr := range sc.attrs {
			p[i] = attrProfile{key: attr.key, rows: attr.rows}
			if v, ok := r.Get(attr.name); ok && !v.IsNull() {
				p[i].set, p[i].valueProfile = true, pr.value(v)
			}
		}
		return p
	}
	p = slices.Grow(p[:0], r.Len())
	for _, f := range r.Fields() {
		n, ok := pr.names[f.Name]
		if !ok {
			if pr.names == nil {
				pr.names = map[string]profiledName{}
			}
			n.key = record.NormalizeName(f.Name)
			n.rows = sc.rowsOf(n.key)
			pr.names[f.Name] = n
		}
		ap := attrProfile{key: n.key, rows: n.rows}
		if !f.Value.IsNull() {
			ap.set, ap.valueProfile = true, pr.value(f.Value)
		}
		p = append(p, ap)
	}
	slices.SortFunc(p, func(x, y attrProfile) int { return strings.Compare(x.key, y.key) })
	return p
}

// pairVector is one pair's features in emission order, reused from pair to
// pair: the model rows and values the classifier sums, and the names for
// callers that want the vector as an ml.Features map.
type pairVector struct {
	rows    []int32
	vals    []float64
	names   []featName
	scratch similarity.Scratch
}

// featName names a feature without building the string: prefix + key, or
// key alone for the two structural features.
type featName struct {
	prefix, key string
}

func (v *pairVector) add(row int32, prefix, key string, val float64) {
	v.rows = append(v.rows, row)
	v.vals = append(v.vals, val)
	v.names = append(v.names, featName{prefix, key})
}

func (v *pairVector) features() ml.Features {
	out := make(ml.Features, len(v.vals))
	for i, n := range v.names {
		out[n.prefix+n.key] = v.vals[i]
	}
	return out
}

// score fills v with the features of the pair behind two profiles of this
// scorer. It allocates nothing once v has grown to the feature count.
func (sc *scorer) score(a, b recordProfile, v *pairVector) {
	v.rows, v.vals, v.names = v.rows[:0], v.vals[:0], v.names[:0]
	shared, exact, total := 0, 0, sc.total
	if total > 0 {
		for i := range a {
			s, e := scoreAttr(&a[i], &b[i], v)
			shared += s * sc.attrs[i].weight
			exact += e * sc.attrs[i].weight
		}
	} else {
		// The union of the pair's attributes: a merge over the sorted keys.
		total = len(a) + len(b)
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch c := strings.Compare(a[i].key, b[j].key); {
			case c < 0:
				i++
			case c > 0:
				j++
			default:
				total--
				s, e := scoreAttr(&a[i], &b[j], v)
				shared += s
				exact += e
				i++
				j++
			}
		}
	}
	if shared > 0 {
		v.add(sc.sharedRow, "", featShared, float64(shared)/float64(total))
		v.add(sc.exactRow, "", featExact, float64(exact)/float64(shared))
	}
}

// scoreAttr emits one attribute's features when both records hold a value,
// and reports (as 0 or 1) whether they did and whether the values agree.
func scoreAttr(a, b *attrProfile, v *pairVector) (shared, exact int) {
	if !a.set || !b.set {
		return 0, 0
	}
	if a.norm == b.norm {
		exact = 1
	}
	v.add(a.rows[featJW], featPrefix[featJW], a.key, v.scratch.JaroWinkler(a.runes, b.runes))
	v.add(a.rows[featTri], featPrefix[featTri], a.key, v.scratch.TrigramSim(a.runes, b.runes, a.trigrams, b.trigrams))
	v.add(a.rows[featTok], featPrefix[featTok], a.key, similarity.JaccardSorted(a.tokens, b.tokens))
	if a.hasNum && b.hasNum {
		v.add(a.rows[featNum], featPrefix[featNum], a.key, numericCloseness(a.num, b.num))
	}
	return 1, exact
}

// prob is the match probability of the pair behind two profiles.
func (sc *scorer) prob(a, b recordProfile, v *pairVector) float64 {
	sc.score(a, b, v)
	if sc.index != nil {
		return sc.index.PredictRows(v.rows, v.vals)
	}
	return sc.model.PredictProb(v.features())
}

// profilePair profiles the two records of one pair: the path of the per-pair
// wrappers (Featurizer.Features, Matcher.Prob).
func (sc *scorer) profilePair(a, b *record.Record) (pa, pb recordProfile) {
	pr := profiler{sc: sc}
	return pr.profile(a), pr.profile(b)
}

// features is one pair's vector as a map by feature name.
func (sc *scorer) features(a, b *record.Record) ml.Features {
	pa, pb := sc.profilePair(a, b)
	var v pairVector
	sc.score(pa, pb, &v)
	return v.features()
}

// numericCloseness maps two numbers to (0,1]: 1 when equal, decaying with
// relative difference.
func numericCloseness(a, b float64) float64 {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if s := b; s < 0 {
		s = -s
		if s > scale {
			scale = s
		}
	} else if b > scale {
		scale = b
	}
	if scale == 0 {
		return 1
	}
	return 1 / (1 + diff/scale)
}
