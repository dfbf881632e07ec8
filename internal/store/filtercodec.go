package store

import (
	"bytes"
	"fmt"

	"repro/dterr"
	"repro/internal/record"
)

// A filter crosses the cluster wire as a document of the codec, so the wire
// adds no second serialization format: a Cond is {t: "cond", op, path,
// value, set}, And and Or are {t: "and"|"or", kids}, Not is {t: "not",
// kid}, All {t: "all"} and a nil filter {t: "nil"}. PutFilter writes that
// document straight from the filter and ReadFilter reads the filter
// straight from its bytes, so neither builds the document.

// Field names of a filter document, and the tags its t field takes.
var (
	filterFieldNames = []string{"t", "op", "path", "value", "set", "kids", "kid"}
	filterTags       = []string{"nil", "all", "cond", "and", "or", "not"}
)

// Indexes into filterFieldNames.
const (
	fieldT = iota
	fieldOp
	fieldPath
	fieldValue
	fieldSet
	fieldKids
	fieldKid
)

// PutFilter appends f's filter document to buf: what PutDoc writes for it.
// A filter type the wire does not carry is an invalid argument, with part
// of the document already written.
func PutFilter(buf *bytes.Buffer, f Filter) error {
	switch v := f.(type) {
	case nil:
		putFilterHead(buf, 1, "nil")
	case Cond:
		n := 4
		if len(v.Set) > 0 {
			n = 5
		}
		putFilterHead(buf, n, "cond")
		putScalarField(buf, "op", record.Int(int64(v.Op)))
		putScalarField(buf, "path", record.String(v.Path))
		putScalarField(buf, "value", v.Value)
		if len(v.Set) > 0 {
			PutString(buf, "set")
			buf.WriteByte(tagList)
			PutUvarint(buf, uint64(len(v.Set)))
			for _, s := range v.Set {
				buf.WriteByte(tagScalar)
				writeScalar(buf, s)
			}
		}
	case And:
		return putCombinator(buf, "and", v)
	case Or:
		return putCombinator(buf, "or", v)
	case Not:
		putFilterHead(buf, 2, "not")
		PutString(buf, "kid")
		buf.WriteByte(tagNested)
		return PutFilter(buf, v.Inner)
	case All:
		putFilterHead(buf, 1, "all")
	default:
		return dterr.Newf(dterr.CodeInvalidArgument, "store: unsupported filter type %T", f)
	}
	return nil
}

// putFilterHead begins a filter document of n fields with its t field.
func putFilterHead(buf *bytes.Buffer, n int, tag string) {
	PutUvarint(buf, uint64(n))
	putScalarField(buf, "t", record.String(tag))
}

func putScalarField(buf *bytes.Buffer, name string, v record.Value) {
	PutString(buf, name)
	buf.WriteByte(tagScalar)
	writeScalar(buf, v)
}

func putCombinator(buf *bytes.Buffer, tag string, kids []Filter) error {
	putFilterHead(buf, 2, tag)
	PutString(buf, "kids")
	buf.WriteByte(tagList)
	PutUvarint(buf, uint64(len(kids)))
	for _, kid := range kids {
		buf.WriteByte(tagNested)
		if err := PutFilter(buf, kid); err != nil {
			return err
		}
	}
	return nil
}

// ReadFilter reads the filter whose document data holds, and nothing after
// it. It reads the document as AdoptDoc followed by the filter's reading of
// its fields would: fields in any order, unknown fields checked and
// ignored, a document or list where a scalar belongs read as null, and the
// children read only for the tag that has them. Bytes that are no document,
// or not what PutDoc writes (see AdoptDoc), fail before anything else;
// every error is an invalid argument.
func ReadFilter(data []byte) (Filter, error) {
	w := &walker[[]byte]{b: data}
	f, bad, err := getFilter(w)
	switch {
	case err != nil:
	case w.left() != 0:
		err = fmt.Errorf("store: %d trailing bytes after document", w.left())
	case w.odd:
		err = errNotCanonical
	}
	if err != nil {
		return nil, dterr.Wrap(dterr.CodeInvalidArgument, err)
	}
	return f, bad
}

// filterDoc is what a filter document's fields say.
type filterDoc struct {
	t, path   string
	op, value record.Value
	set       []record.Value // nil unless set is a list
	kids      []Filter       // nil unless kids is a list
	kidsBad   error          // what is wrong with the first bad child
	kid       Filter
	hasKid    bool // kid is a document
	kidBad    error
}

// getFilter reads one filter document off w. err says the bytes are no
// document; bad, that the document is no filter. Children are read as they
// come, before the tag that decides whether they count may have been read,
// so their faults wait in bad until then.
func getFilter(w *walker[[]byte]) (f Filter, bad, err error) {
	var fd filterDoc
	n, err := w.count()
	if err != nil {
		return nil, nil, err
	}
	first := w.i
	for i := 0; i < n; i++ {
		start := w.i
		at, size, err := w.name()
		if err != nil {
			return nil, nil, err
		}
		w.noteName(first, start, at, size)
		field := w.pick(size, filterFieldNames...)
		if field < 0 {
			w.i += size
		}
		if err := fd.read(w, field); err != nil {
			return nil, nil, w.fieldErr(at, size, err)
		}
	}
	f, bad = fd.filter()
	return f, bad, nil
}

// read reads the value of one field, an index into filterFieldNames or -1
// for a field a filter has not.
func (fd *filterDoc) read(w *walker[[]byte], field int) error {
	var err error
	switch field {
	case fieldT:
		fd.t, err = getTag(w)
	case fieldOp:
		fd.op, err = getScalar(w)
	case fieldPath:
		var v record.Value
		v, err = getScalar(w)
		fd.path = v.Str()
	case fieldValue:
		fd.value, err = getScalar(w)
	case fieldSet:
		var n int
		if n, err = getListLen(w); n > 0 {
			fd.set = make([]record.Value, n)
			for i := range fd.set {
				if fd.set[i], err = getScalar(w); err != nil {
					break
				}
			}
		}
	case fieldKids:
		fd.kids, fd.kidsBad, err = getKids(w)
	case fieldKid:
		if fd.hasKid, err = nextIs(w, tagNested); fd.hasKid {
			fd.kid, fd.kidBad, err = getFilter(w)
		} else if err == nil {
			err = w.value()
		}
	default:
		err = w.value()
	}
	return err
}

// filter is the filter the fields say.
func (fd *filterDoc) filter() (Filter, error) {
	switch fd.t {
	case "nil":
		return nil, nil
	case "all":
		return All{}, nil
	case "cond":
		op, _ := fd.op.AsInt()
		return Cond{Path: fd.path, Op: Op(op), Value: fd.value, Set: fd.set}, nil
	case "and", "or":
		if fd.kidsBad != nil {
			return nil, fd.kidsBad
		}
		if fd.t == "and" {
			return And(fd.kids), nil
		}
		return Or(fd.kids), nil
	case "not":
		if !fd.hasKid {
			return nil, dterr.New(dterr.CodeInvalidArgument, "store: not-filter missing child")
		}
		if fd.kidBad != nil {
			return nil, fd.kidBad
		}
		return Not{Inner: fd.kid}, nil
	default:
		return nil, dterr.Newf(dterr.CodeInvalidArgument, "store: unknown filter tag %q", fd.t)
	}
}

// getKids reads a combinator's kids value: nil when it is no list, else
// each child's filter up to the first that is no document or no filter,
// whose fault is bad; the rest are only checked.
func getKids(w *walker[[]byte]) (kids []Filter, bad, err error) {
	n, err := getListLen(w)
	if n > 0 {
		kids = make([]Filter, 0, n)
	}
	for i := 0; i < n && err == nil; i++ {
		var doc bool
		if doc, err = nextIs(w, tagNested); err != nil {
			break
		}
		switch {
		case !doc:
			if bad == nil {
				bad = dterr.New(dterr.CodeInvalidArgument, "store: combinator child is not a document")
			}
			err = w.value()
		case bad != nil:
			err = w.doc()
		default:
			var kid Filter
			if kid, bad, err = getFilter(w); bad == nil {
				kids = append(kids, kid)
			}
		}
	}
	if bad != nil {
		kids = nil
	}
	return kids, bad, err
}

// getScalar reads one document value as DocValue.Scalar reads it: the
// scalar itself, or null for a document or a list, which is only checked.
func getScalar(w *walker[[]byte]) (record.Value, error) {
	scalar, err := nextIs(w, tagScalar)
	if err != nil {
		return record.Null, err
	}
	if scalar {
		return w.scalar(true)
	}
	err = w.value()
	return record.Null, err
}

// getTag reads the t field's value as PathString renders it: a known tag
// as the package's string, copying nothing.
func getTag(w *walker[[]byte]) (string, error) {
	if w.left() >= 2 && w.b[w.i] == tagScalar && w.b[w.i+1] == kindString {
		w.i += 2
		size, err := w.length()
		if err != nil {
			return "", err
		}
		if i := w.pick(size, filterTags...); i >= 0 {
			return filterTags[i], nil
		}
		return w.str(size), nil
	}
	v, err := getScalar(w)
	return v.Str(), err
}

// getListLen reads a value that is a list up to its elements and returns
// their count, or checks a value that is none and returns 0.
func getListLen(w *walker[[]byte]) (int, error) {
	list, err := nextIs(w, tagList)
	if err != nil || !list {
		if err == nil {
			err = w.value()
		}
		return 0, err
	}
	n, err := w.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(w.left()) {
		return 0, fmt.Errorf("list length %d exceeds remaining bytes", n)
	}
	return int(n), nil
}

// nextIs reports whether the next value's tag is tag, consuming the tag
// when it is and leaving it to be read otherwise.
func nextIs(w *walker[[]byte], tag byte) (bool, error) {
	b, err := w.readByte()
	if err != nil {
		return false, err
	}
	if b != tag {
		w.i--
		return false, nil
	}
	return true, nil
}

// pick reports which of known the n bytes next in w spell, -1 for none, and
// consumes them when one does, copying nothing. w holds n bytes.
func (w *walker[B]) pick(n int, known ...string) int {
	next := w.b[w.i : w.i+n]
	for i, k := range known {
		if string(next) == k {
			w.i += n
			return i
		}
	}
	return -1
}
