// Package canon produces canonical JSON: object keys sorted, numeric
// literals preserved verbatim, no insignificant whitespace. Two
// semantically identical documents always canonicalize to the same
// bytes, which makes the output safe to hash (the job daemon's
// content-addressed cache key) and safe to compare byte-for-byte (a
// cached result versus a freshly computed one).
package canon

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
)

// Bytes rewrites raw JSON into canonical form. Numbers are decoded as
// json.Number so their textual representation survives the round trip
// exactly — no float re-formatting, no precision loss on large int64s.
// Object keys come out sorted because encoding/json sorts map keys.
func Bytes(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("canon: decode: %w", err)
	}
	// Reject trailing garbage so a truncated or concatenated document
	// never silently canonicalizes to its first value.
	var extra any
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("canon: trailing data after JSON value")
	}
	out, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("canon: encode: %w", err)
	}
	return out, nil
}

// JSON returns the canonical encoding of v: the bytes Bytes makes of
// json.Marshal(v), produced in one pass. Structs are written directly,
// their fields in JSON-key order (computed once per type); numbers take
// encoding/json's text, which Bytes keeps verbatim. A Wirer is written
// as its wire value. Maps, embedded structs, other json.Marshaler and
// encoding.TextMarshaler values, and anything unusual (a string that
// needs escaping, a byte slice, a ",string" field) go through the
// json.Marshal-and-Bytes round trip. A value that encoding/json rejects
// is rejected with its error.
func JSON(v any) ([]byte, error) {
	e := encStates.Get().(*encState)
	defer encStates.Put(e)
	e.b, e.depth = e.b[:0], 0
	if err := e.value(reflect.ValueOf(v)); err != nil {
		return roundTrip(v)
	}
	return bytes.Clone(e.b), nil
}

// encStates recycles encoding buffers, so an encoding allocates only
// its exact-size result.
var encStates = sync.Pool{New: func() any { return new(encState) }}

// roundTrip is the reference encoding JSON reproduces.
func roundTrip(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("canon: marshal: %w", err)
	}
	return Bytes(raw)
}

// encState is one encoding in progress: the output so far and the
// nesting depth of pointers, interfaces and slices.
type encState struct {
	b     []byte
	depth int
}

// maxDepth bounds that nesting. Deeper values, cyclic ones included,
// take the round trip, where encoding/json finds the cycle.
const maxDepth = 1000

// encFn appends the canonical encoding of v to e.b. An error sends the
// whole value through roundTrip, which reproduces encoding/json's
// error, if any.
type encFn func(e *encState, v reflect.Value) error

// encoders caches one encFn per type.
var encoders sync.Map // reflect.Type -> encFn

func (e *encState) value(v reflect.Value) error {
	if !v.IsValid() {
		e.b = append(e.b, "null"...)
		return nil
	}
	return encoderFor(v.Type())(e, v)
}

// nest encodes v with elem one level deeper.
func (e *encState) nest(v reflect.Value, elem encFn) error {
	if e.depth++; e.depth > maxDepth {
		return errRoundTrip
	}
	err := elem(e, v)
	e.depth--
	return err
}

func encoderFor(t reflect.Type) encFn {
	if f, ok := encoders.Load(t); ok {
		return f.(encFn)
	}
	// A recursive type reaches itself while its encoder is built; it
	// gets an indirection that waits for the real one, as in
	// encoding/json.
	var (
		wg sync.WaitGroup
		f  encFn
	)
	wg.Add(1)
	fi, loaded := encoders.LoadOrStore(t, encFn(func(e *encState, v reflect.Value) error {
		wg.Wait()
		return f(e, v)
	}))
	if loaded {
		return fi.(encFn)
	}
	f = newEncoder(t)
	wg.Done()
	encoders.Store(t, f)
	return f
}

var (
	marshalerType     = reflect.TypeFor[json.Marshaler]()
	textMarshalerType = reflect.TypeFor[encoding.TextMarshaler]()
	numberType        = reflect.TypeFor[json.Number]()
)

func isMarshaler(t reflect.Type) bool {
	return t.Implements(marshalerType) || t.Implements(textMarshalerType)
}

// Wirer is a json.Marshaler whose encoding is json.Marshal of the value
// Wire returns. JSON writes that value in one pass instead of taking
// the round trip through its MarshalJSON.
type Wirer interface {
	json.Marshaler
	Wire() any
}

var wirerType = reflect.TypeFor[Wirer]()

func newEncoder(t reflect.Type) encFn {
	if t.Implements(wirerType) {
		return func(e *encState, v reflect.Value) error {
			if t.Kind() == reflect.Pointer && v.IsNil() {
				e.b = append(e.b, "null"...)
				return nil
			}
			return e.nest(reflect.ValueOf(v.Interface().(Wirer).Wire()), (*encState).value)
		}
	}
	if isMarshaler(t) || t == numberType {
		return fallback
	}
	if t.Kind() != reflect.Pointer && isMarshaler(reflect.PointerTo(t)) {
		// encoding/json calls a pointer-receiver marshaler only on an
		// addressable value.
		plain := newPlainEncoder(t)
		return func(e *encState, v reflect.Value) error {
			if v.CanAddr() {
				return e.roundTrip(v.Addr().Interface())
			}
			return plain(e, v)
		}
	}
	return newPlainEncoder(t)
}

func newPlainEncoder(t reflect.Type) encFn {
	switch t.Kind() {
	case reflect.Bool:
		return func(e *encState, v reflect.Value) error {
			e.b = strconv.AppendBool(e.b, v.Bool())
			return nil
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(e *encState, v reflect.Value) error {
			e.b = strconv.AppendInt(e.b, v.Int(), 10)
			return nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return func(e *encState, v reflect.Value) error {
			e.b = strconv.AppendUint(e.b, v.Uint(), 10)
			return nil
		}
	case reflect.Float32:
		return floatEncoder(32)
	case reflect.Float64:
		return floatEncoder(64)
	case reflect.String:
		return appendString
	case reflect.Interface:
		return func(e *encState, v reflect.Value) error {
			if v.IsNil() {
				e.b = append(e.b, "null"...)
				return nil
			}
			return e.nest(v.Elem(), (*encState).value)
		}
	case reflect.Pointer:
		elem := encoderFor(t.Elem())
		return func(e *encState, v reflect.Value) error {
			if v.IsNil() {
				e.b = append(e.b, "null"...)
				return nil
			}
			return e.nest(v.Elem(), elem)
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 && !isMarshaler(reflect.PointerTo(t.Elem())) {
			return fallback // base64
		}
		elems := elemsEncoder(encoderFor(t.Elem()))
		return func(e *encState, v reflect.Value) error {
			if v.IsNil() {
				e.b = append(e.b, "null"...)
				return nil
			}
			return e.nest(v, elems)
		}
	case reflect.Array:
		return elemsEncoder(encoderFor(t.Elem()))
	case reflect.Struct:
		return newStructEncoder(t)
	}
	// Maps, and the kinds encoding/json rejects.
	return fallback
}

func elemsEncoder(elem encFn) encFn {
	return func(e *encState, v reflect.Value) error {
		e.b = append(e.b, '[')
		for i, n := 0, v.Len(); i < n; i++ {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			if err := elem(e, v.Index(i)); err != nil {
				return err
			}
		}
		e.b = append(e.b, ']')
		return nil
	}
}

// fallback encodes v by the reference round trip. An addressable v goes
// by pointer, so encoding/json sees the addressability this encoder saw
// and calls the same pointer-receiver marshalers inside it.
func fallback(e *encState, v reflect.Value) error {
	if v.CanAddr() {
		return e.roundTrip(v.Addr().Interface())
	}
	return e.roundTrip(v.Interface())
}

func (e *encState) roundTrip(v any) error {
	out, err := roundTrip(v)
	if err != nil {
		return err
	}
	e.b = append(e.b, out...)
	return nil
}

// floatEncoder formats as encoding/json does: the shortest repr, in
// exponent form below 1e-6 and from 1e21 on, with a two-digit negative
// exponent trimmed to one.
func floatEncoder(bits int) encFn {
	return func(e *encState, v reflect.Value) error {
		f := v.Float()
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return errRoundTrip
		}
		abs := math.Abs(f)
		format := byte('f')
		if abs != 0 && (bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
			bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21)) {
			format = 'e'
		}
		b := strconv.AppendFloat(e.b, f, format, -1, bits)
		if format == 'e' {
			if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
				b[n-2] = b[n-1]
				b = b[:n-1]
			}
		}
		e.b = b
		return nil
	}
}

// errRoundTrip sends a whole value through roundTrip.
var errRoundTrip = fmt.Errorf("canon: value needs the round trip")

// appendString writes strings of printable ASCII that need no escape
// directly; any other string takes the round trip, which settles
// escapes and invalid UTF-8 exactly as encoding/json does.
func appendString(e *encState, v reflect.Value) error {
	s := v.String()
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return e.roundTrip(s)
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
	return nil
}

// field is one encoded struct field: its index, its `"key":` prefix and
// how to encode its value.
type field struct {
	index     int
	key       []byte
	omitEmpty bool
	enc       encFn
}

// newStructEncoder writes t's fields sorted by JSON key, the order
// Bytes gives the object. Struct shapes whose field set encoding/json
// decides by rules this encoder does not repeat (embedded fields,
// duplicate or invalid names, the string and omitzero options) take
// the round trip.
func newStructEncoder(t reflect.Type) encFn {
	type named struct {
		name string
		field
	}
	var fs []named
	seen := make(map[string]bool)
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			return fallback
		}
		if !sf.IsExported() {
			continue
		}
		tag := sf.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = sf.Name
		} else if !validTag(name) {
			return fallback
		}
		omitEmpty := false
		for opts != "" {
			var opt string
			opt, opts, _ = strings.Cut(opts, ",")
			switch opt {
			case "omitempty":
				omitEmpty = true
			case "string", "omitzero":
				return fallback
			}
		}
		if seen[name] {
			return fallback
		}
		seen[name] = true
		key, err := json.Marshal(name)
		if err != nil {
			return fallback
		}
		fs = append(fs, named{name, field{index: i, key: append(key, ':'), omitEmpty: omitEmpty}})
	}
	slices.SortFunc(fs, func(a, b named) int { return strings.Compare(a.name, b.name) })
	fields := make([]field, len(fs))
	for i, f := range fs {
		f.enc = encoderFor(t.Field(f.index).Type)
		fields[i] = f.field
	}
	return func(e *encState, v reflect.Value) error {
		e.b = append(e.b, '{')
		first := true
		for i := range fields {
			f := &fields[i]
			fv := v.Field(f.index)
			if f.omitEmpty && isEmpty(fv) {
				continue
			}
			if !first {
				e.b = append(e.b, ',')
			}
			first = false
			e.b = append(e.b, f.key...)
			if err := f.enc(e, fv); err != nil {
				return err
			}
		}
		e.b = append(e.b, '}')
		return nil
	}
}

// validTag is encoding/json's rule for a usable tag name.
func validTag(s string) bool {
	for _, c := range s {
		switch {
		case strings.ContainsRune("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c):
		case !unicode.IsLetter(c) && !unicode.IsDigit(c):
			return false
		}
	}
	return s != ""
}

// isEmpty is encoding/json's omitempty test.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return v.Uint() == 0
	case reflect.Float32, reflect.Float64:
		return v.Float() == 0
	case reflect.Interface, reflect.Pointer:
		return v.IsNil()
	}
	return false
}
