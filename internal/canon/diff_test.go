package canon_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"muzha"
	"muzha/internal/canon"
	"muzha/internal/scenario"
)

// The one-pass encoder must produce exactly the bytes of the reference
// round trip, canon.Bytes(json.Marshal(v)), and fail exactly when it
// fails. These tests compare the two on hand-picked edge cases and on
// random Result, Config and Spec values.

func reference(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return canon.Bytes(raw)
}

func compare(t *testing.T, name string, v any) {
	t.Helper()
	got, gotErr := canon.JSON(v)
	want, wantErr := reference(v)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: JSON error %v, round trip error %v", name, gotErr, wantErr)
	}
	if string(got) != string(want) {
		t.Fatalf("%s:\n JSON       %s\n round trip %s", name, got, want)
	}
}

type textKey int

func (k textKey) MarshalText() ([]byte, error) { return []byte(fmt.Sprintf("k%d", int(k))), nil }

type ptrMarshaler struct{ N int }

func (p *ptrMarshaler) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"z":1,"n":%d}`, p.N)), nil
}

type inner struct {
	B int `json:"b"`
	A int `json:"a"`
}

type edge struct {
	Zeta    string            `json:"zeta"`
	Alpha   float64           `json:"alpha"`
	Omitted int               `json:"omitted,omitempty"`
	Kept    []int             `json:"kept,omitempty"`
	Nil     []int             `json:"nil"`
	Empty   []int             `json:"empty"`
	Map     map[string]int    `json:"map"`
	Text    textKey           `json:"text"`
	Ptr     *inner            `json:"ptr"`
	Any     any               `json:"any"`
	Bytes   []byte            `json:"bytes"`
	Num     json.Number       `json:"num"`
	Raw     json.RawMessage   `json:"raw"`
	PM      ptrMarshaler      `json:"pm"`
	PMs     []ptrMarshaler    `json:"pms"`
	Arr     [2]uint8          `json:"arr"`
	F32     float32           `json:"f32"`
	Dur     time.Duration     `json:"dur"`
	When    time.Time         `json:"when"`
	Tags    map[textKey]inner `json:"tags"`
	NoTag   bool
	Quoted  int `json:",string"`
	Skip    int `json:"-"`
	Dash    int `json:"-,"`
	private int
	inner
}

func TestJSONMatchesRoundTripOnEdgeCases(t *testing.T) {
	strs := []string{"", "plain", "<a&b>", "quote\"back\\slash", "tab\tnl\n", "\x01\x7f", "é ünï", "\u2028\u2029", "bad\xffutf8", "\xed\xa0\x80"}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.99e-7, 1e-9, 1e20, 1e21, 123456789012345678, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2}
	for i, s := range strs {
		compare(t, fmt.Sprintf("string %d", i), s)
		compare(t, fmt.Sprintf("key %d", i), map[string]string{s: s})
	}
	for _, f := range floats {
		compare(t, fmt.Sprint(f), f)
		compare(t, fmt.Sprint("f32 ", f), float32(f))
	}
	compare(t, "zero topologies", struct {
		P *muzha.Topology
		V muzha.Topology
	}{})
	for _, f := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := canon.JSON(f); err == nil {
			t.Fatalf("%v encoded without error", f)
		}
	}
	e := edge{
		Zeta: "z<", Alpha: 1e-7, Kept: []int{1}, Empty: []int{}, Map: map[string]int{"b": 1, "a": 2},
		Text: 3, Ptr: &inner{B: 1, A: 2}, Any: []any{1.5, "x", nil, map[string]any{"q": true}},
		Bytes: []byte("hi\x00"), Num: "1.500", Raw: json.RawMessage(`{"y": 1, "x": [2, 1]}`),
		PM: ptrMarshaler{N: 4}, PMs: []ptrMarshaler{{N: 5}}, Arr: [2]uint8{7, 8}, F32: 0.1,
		Dur: 3 * time.Second, When: time.Date(2001, 2, 3, 4, 5, 6, 7, time.UTC),
		Tags: map[textKey]inner{9: {A: 1}}, NoTag: true, Quoted: 12, Skip: 1, Dash: 2, private: 3,
		inner: inner{B: 8},
	}
	compare(t, "edge value", e)
	compare(t, "edge pointer", &e) // pointer-receiver marshalers run on addressable fields
	compare(t, "edge slice", []edge{e, {}})
	compare(t, "plain struct", inner{B: 2, A: 1})
	compare(t, "nil", nil)
	compare(t, "nil pointer", (*inner)(nil))

	type cyclic struct {
		Next *cyclic `json:"next"`
	}
	loop := &cyclic{}
	loop.Next = loop
	if _, err := canon.JSON(loop); err == nil {
		t.Fatal("a cyclic value encoded without error")
	}
}

// fill sets every settable exported field of v to random contents.
func fill(rng *rand.Rand, v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, rng.Int63n(1e6) - 5e5}[rng.Intn(6)]
		if v.OverflowInt(n) {
			n = int64(rng.Intn(100))
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n := []uint64{0, 1, math.MaxUint64, uint64(rng.Int63())}[rng.Intn(4)]
		if v.OverflowUint(n) {
			n = uint64(rng.Intn(100))
		}
		v.SetUint(n)
	case reflect.Float32, reflect.Float64:
		f := []float64{0, math.Copysign(0, -1), rng.Float64(), rng.NormFloat64() * 1e-8, rng.ExpFloat64() * 1e22, float64(rng.Int63()), 1e-7, 0.1}[rng.Intn(8)]
		if rng.Intn(64) == 0 {
			f = math.NaN()
		}
		v.SetFloat(f)
	case reflect.String:
		v.SetString([]string{"", "chain", "muzha", "a<b", "x&y", "é", "\u2028", "\xff", "tab\t", "q\"", "sometimes"}[rng.Intn(11)])
	case reflect.Pointer:
		if depth > 4 || rng.Intn(3) == 0 {
			v.SetZero()
			return
		}
		p := reflect.New(v.Type().Elem())
		fill(rng, p.Elem(), depth+1)
		v.Set(p)
	case reflect.Slice:
		if depth > 4 || rng.Intn(4) == 0 {
			v.SetZero()
			return
		}
		s := reflect.MakeSlice(v.Type(), rng.Intn(4), 4)
		for i := 0; i < s.Len(); i++ {
			fill(rng, s.Index(i), depth+1)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(rng, v.Index(i), depth+1)
		}
	case reflect.Map:
		if rng.Intn(3) == 0 {
			v.SetZero()
			return
		}
		m := reflect.MakeMap(v.Type())
		for i := rng.Intn(3); i > 0; i-- {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(rng, k, depth+1)
			fill(rng, e, depth+1)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fill(rng, f, depth+1)
			}
		}
	}
	// Interfaces, funcs and channels stay nil.
}

// randomValues returns a random Result, Config, Topology and scenario
// Spec.
func randomValues(seed int64) []any {
	rng := rand.New(rand.NewSource(seed))
	var res muzha.Result
	fill(rng, reflect.ValueOf(&res).Elem(), 0)
	var cfg muzha.Config
	fill(rng, reflect.ValueOf(&cfg).Elem(), 0)
	if rng.Intn(2) == 0 {
		if tp, err := muzha.RandomTopology(1+rng.Intn(6), 500, 500, seed); err == nil {
			cfg.Topology = tp
		}
	}
	var spec scenario.Spec
	fill(rng, reflect.ValueOf(&spec).Elem(), 0)
	// The topology alone: a Config's own encoding writes it through
	// Wire on both sides of the comparison.
	return []any{res, &res, cfg, cfg.Topology, spec}
}

func TestJSONMatchesRoundTripOnRandomValues(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		for i, v := range randomValues(seed) {
			compare(t, fmt.Sprintf("seed %d value %d (%T)", seed, i, v), v)
		}
	}
}

func FuzzJSONMatchesRoundTrip(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(77))
	f.Fuzz(func(t *testing.T, seed int64) {
		for i, v := range randomValues(seed) {
			compare(t, fmt.Sprintf("value %d (%T)", i, v), v)
		}
	})
}
