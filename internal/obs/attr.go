package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Attr is one typed span attribute: a key and a JSON scalar (a number,
// a bool or a string), built with Float, Int, Bool or String. It is a
// plain value, so copying an Attr copies the attribute.
type Attr struct {
	Key  string
	kind attrKind
	num  float64 // the number; 1 or 0 for a bool
	str  string
}

type attrKind uint8

const (
	kindNumber attrKind = iota
	kindBool
	kindString
)

// Float returns a number attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, num: v} }

// Int returns a number attribute holding v. Numbers are float64 on the
// wire, so Int is exact for integers up to 2⁵³ and an Int attribute
// equals the Float attribute a JSON decode produces.
func Int[T ~int | ~int64](key string, v T) Attr { return Attr{Key: key, num: float64(v)} }

// Bool returns a bool attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// String returns a string attribute. The values "NaN", "+Inf" and
// "-Inf" are reserved: they encode non-finite numbers on the wire and
// read back as numbers.
func String(key, v string) Attr { return Attr{Key: key, kind: kindString, str: v} }

// Float returns a number attribute's value (0 for other kinds).
func (a Attr) Float() float64 {
	if a.kind != kindNumber {
		return 0
	}
	return a.num
}

// Bool returns a bool attribute's value (false for other kinds).
func (a Attr) Bool() bool { return a.kind == kindBool && a.num != 0 }

// Str returns a string attribute's value ("" for other kinds).
func (a Attr) Str() string { return a.str }

// render canonicalizes the value for comparison and display: numbers in
// shortest float form, strings quoted.
func (a Attr) render() string {
	switch a.kind {
	case kindBool:
		return strconv.FormatBool(a.num != 0)
	case kindString:
		return strconv.Quote(a.str)
	}
	return strconv.FormatFloat(a.num, 'g', -1, 64)
}

// Attrs is a span's typed attribute list, keys unique — a slice of
// scalars rather than a map, so an emitter can build every span in one
// reusable array and tracing allocates nothing per span. An emitted
// span's Attrs are borrowed (see Sink). Trace and Recorder keep their
// copies sorted by key — the order NDJSON writes them in — so a kept
// trace equals its own write/read round trip.
type Attrs []Attr

// Get returns the attribute named key.
func (as Attrs) Get(key string) (Attr, bool) {
	for _, a := range as {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

func byKey(a, b Attr) int { return strings.Compare(a.Key, b.Key) }

// nonFinite maps the reserved wire strings to the numbers they encode.
// encoding/json rejects NaN and ±Inf, and the measure spans that carry
// the gate's non-finite verdict hold exactly those.
var nonFinite = map[string]float64{
	"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1),
}

// value returns the attribute's JSON value: a float64, bool or string,
// with a non-finite number as its reserved string.
func (a Attr) value() any {
	switch {
	case a.kind == kindBool:
		return a.num != 0
	case a.kind == kindString:
		return a.str
	case math.IsNaN(a.num) || math.IsInf(a.num, 0):
		return strconv.FormatFloat(a.num, 'g', -1, 64) // "NaN", "+Inf" or "-Inf"
	}
	return a.num
}

// MarshalJSON writes the attributes as one JSON object exactly as
// encoding/json writes a map of their values — sorted keys, its float
// format — so dumps match those of the map form they replaced.
// Non-finite numbers become the reserved strings "NaN", "+Inf" and
// "-Inf".
func (as Attrs) MarshalJSON() ([]byte, error) {
	m := make(map[string]any, len(as))
	for _, a := range as {
		m[a.Key] = a.value()
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads an attribute object. Values must be numbers, bools
// or strings; the reserved strings read back as non-finite numbers.
func (as *Attrs) UnmarshalJSON(b []byte) error {
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	if len(m) == 0 {
		*as = nil
		return nil
	}
	out := make(Attrs, 0, len(m))
	for k, v := range m {
		switch x := v.(type) {
		case float64:
			out = append(out, Float(k, x))
		case bool:
			out = append(out, Bool(k, x))
		case string:
			if f, ok := nonFinite[x]; ok {
				out = append(out, Float(k, f))
			} else {
				out = append(out, String(k, x))
			}
		default:
			return fmt.Errorf("attribute %q: value %v is not a number, bool or string", k, v)
		}
	}
	slices.SortFunc(out, byKey)
	*as = out
	return nil
}
