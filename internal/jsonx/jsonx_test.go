package jsonx

import (
	"strings"
	"testing"
)

type inner struct {
	Rate float64 `json:"rate"`
}

type outer struct {
	Name    string  `json:"name"`
	Weight  float64 `json:"weight"`
	Nested  inner   `json:"nested"`
	Numbers []int   `json:"numbers"`
	Items   []inner `json:"items"`
}

// request embeds outer the way a request body embeds its config.
type request struct {
	outer
	Count int            `json:"count"`
	Extra map[string]any `json:"extra"`
}

func TestDecodeStrictOK(t *testing.T) {
	var v outer
	err := UnmarshalStrict([]byte(`{"name":"a","weight":2,"nested":{"rate":0.5},"numbers":[1,2]}`), &v)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v.Name != "a" || v.Weight != 2 || v.Nested.Rate != 0.5 || len(v.Numbers) != 2 {
		t.Fatalf("decoded %+v", v)
	}
}

func TestDecodeStrictUnknownField(t *testing.T) {
	var v outer
	err := UnmarshalStrict([]byte(`{"name":"a","wieght":2}`), &v)
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), `"wieght"`) {
		t.Fatalf("error does not name the field: %v", err)
	}
	if strings.HasPrefix(err.Error(), "json: ") {
		t.Fatalf("error keeps the stdlib prefix: %v", err)
	}
}

// TestDecodeStrictUnknownFieldPath: an unknown key is reported at its
// path, through nested objects, array elements and embedded structs,
// while keys under maps are never unknown.
func TestDecodeStrictUnknownFieldPath(t *testing.T) {
	cases := []struct{ doc, want string }{
		{`{"nested":{"rat":1}}`, `nested.rat: unknown field "rat"`},
		{`{"items":[{"rate":1},{"rate":2,"engine":"fixed"}]}`, `items[1].engine: unknown field "engine"`},
		{`{"extra":{"anything":{"goes":1}},"count":2,"name":"a","Weight":1,"engine":"x"}`, `engine: unknown field "engine"`},
	}
	for _, tc := range cases {
		var v request
		err := UnmarshalStrict([]byte(tc.doc), &v)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: got %v, want %s", tc.doc, err, tc.want)
		}
	}
}

func TestDecodeStrictFieldPath(t *testing.T) {
	var v outer
	err := UnmarshalStrict([]byte(`{"nested":{"rate":"fast"}}`), &v)
	if err == nil {
		t.Fatal("type mismatch accepted")
	}
	if !strings.Contains(err.Error(), "nested.rate") {
		t.Fatalf("error lacks the field path: %v", err)
	}
}

func TestDecodeStrictTrailingGarbage(t *testing.T) {
	var v outer
	if err := UnmarshalStrict([]byte(`{"name":"a"} {"name":"b"}`), &v); err == nil {
		t.Fatal("trailing document accepted")
	}
}

func TestDecodeStrictSyntax(t *testing.T) {
	var v outer
	err := UnmarshalStrict([]byte(`{"name":`), &v)
	if err == nil {
		t.Fatal("syntax error accepted")
	}
}
