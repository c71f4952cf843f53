package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestAttrsGet(t *testing.T) {
	as := Attrs{Float("x", 2.5), Bool("ok", true), String("path", "cache"), Int("n", 7)}
	if a, ok := as.Get("x"); !ok || a.Float() != 2.5 {
		t.Fatalf("Get(x) = %+v, %v", a, ok)
	}
	if a, _ := as.Get("ok"); !a.Bool() || a.Float() != 0 {
		t.Fatalf("Get(ok) = %+v", a)
	}
	if a, _ := as.Get("path"); a.Str() != "cache" || a.Bool() {
		t.Fatalf("Get(path) = %+v", a)
	}
	if a, _ := as.Get("n"); a != Float("n", 7) {
		t.Fatalf("Int and Float attributes of the same number differ: %+v", a)
	}
	if _, ok := as.Get("missing"); ok {
		t.Fatal("Get found an absent key")
	}
}

// Regression: encoding/json rejects NaN and ±Inf, and WriteNDJSON used
// to return before flushing — one non-finite attribute lost the whole
// dump, earlier spans included. Non-finite numbers travel as reserved
// strings and read back as numbers.
func TestNDJSONNonFinite(t *testing.T) {
	in := []Span{
		span(1, StageMeasure, time.Second, Attrs{Float("measured_gips", 0.5)}),
		span(2, StageMeasure, 2*time.Second, Attrs{
			String("gate_verdict", "non-finite"), Float("measured_gips", math.NaN()),
			Float("z", math.Inf(1)), Float("zneg", math.Inf(-1)),
		}),
		span(2, StageCycle, 2*time.Second, Attrs{Float("measured_gips", math.NaN())}),
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	written := buf.String()
	if n := strings.Count(written, "\n"); n != len(in) {
		t.Fatalf("dump has %d lines, want %d:\n%s", n, len(in), written)
	}
	for _, want := range []string{`"measured_gips":"NaN"`, `"z":"+Inf"`, `"zneg":"-Inf"`} {
		if !strings.Contains(written, want) {
			t.Fatalf("dump lacks %s:\n%s", want, written)
		}
	}
	out, err := ReadNDJSON(strings.NewReader(written))
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := out[1].Attrs.Get("measured_gips"); !math.IsNaN(a.Float()) {
		t.Fatalf("NaN read back as %+v", a)
	}
	if a, _ := out[1].Attrs.Get("zneg"); !math.IsInf(a.Float(), -1) {
		t.Fatalf("-Inf read back as %+v", a)
	}
	if res := Diff(in, out); !res.Identical() {
		t.Fatalf("round trip diverged at cycle %d: %v", res.FirstDivergent, res.Deltas)
	}
	var again bytes.Buffer
	if err := WriteNDJSON(&again, out); err != nil {
		t.Fatal(err)
	}
	if again.String() != written {
		t.Fatalf("rewrite differs:\n%s\nvs\n%s", again.String(), written)
	}
}

// Attribute values must be JSON scalars; anything else fails the read
// with its line number.
func TestReadNDJSONRejectsNonScalar(t *testing.T) {
	for _, v := range []string{`[1]`, `{"x":1}`, `null`} {
		in := "{\"cycle\":1}\n{\"cycle\":2,\"attrs\":{\"k\":" + v + "}}\n"
		_, err := ReadNDJSON(strings.NewReader(in))
		if err == nil {
			t.Fatalf("attribute value %s accepted", v)
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("error %q does not carry the line number", err)
		}
	}
}

// FuzzReadNDJSON covers aspeo-trace's input path: any accepted stream
// must write back canonically — reading and rewriting the written bytes
// reproduces them exactly — and a rejected one names its line.
func FuzzReadNDJSON(f *testing.F) {
	f.Add([]byte(`{"cycle":1,"stage":"measure","at_ns":2000000000,"attrs":{"accepted":true,"gate_verdict":"outlier","measured_gips":0.4375}}` + "\n"))
	f.Add([]byte(`{"cycle":3,"stage":"cycle","at_ns":6,"attrs":{"measured_gips":"NaN","z":"+Inf","w":"-Inf"}}` + "\n\n" + `{"cycle":4}`))
	f.Add([]byte(`{"cycle":1,"attrs":{"k":[1]}}`))
	f.Add([]byte(`{"attrs":{"b":1e-7,"a":1e21,"c":-0,"d":"<&>"}}` + "\r\n" + `null`))
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		spans, err := ReadNDJSON(bytes.NewReader(in))
		if err != nil {
			if !strings.Contains(err.Error(), "line ") && !strings.Contains(err.Error(), "reading trace") {
				t.Fatalf("rejection without a line number: %v", err)
			}
			return
		}
		var first bytes.Buffer
		if err := WriteNDJSON(&first, spans); err != nil {
			t.Fatalf("accepted input does not write: %v", err)
		}
		again, err := ReadNDJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteNDJSON(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write/read/write is not stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
