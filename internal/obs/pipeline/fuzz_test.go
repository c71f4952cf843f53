package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadNDJSON covers the telemetry-replay input path (aspeo-trace
// rollup): any stream ReadNDJSON accepts must aggregate without a panic,
// and must write back canonically — reading and rewriting the written
// bytes reproduces them exactly.
func FuzzReadNDJSON(f *testing.F) {
	capture, err := os.ReadFile(filepath.Join("..", "..", "fleet", "testdata", "telemetry_v1.ndjson"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(capture)
	f.Add([]byte(`{"epoch":1,"arrivals":[{"cohort":"c","t_s":1e300}],` +
		`"cycles":[{"session":1,"cohort":"c","t_s":1e300,"measured_gips":1,"target_gips":2,"power_w":1}]}`))
	f.Add([]byte(`{"epoch":2,"cycles":[{"session":3,"cohort":"<&>","t_s":-1,"measured_gips":-0,"power_w":1e-7,"storm":true,"health":{}}],` +
		`"finals":[{"session":3,"cohort":"","has_summary":true,"controller":true,"health":{"consecutive_failures":-2},"relinquished":true,"last_transition":"relinquished@4"}]}` +
		"\r\n\n" + `null`))
	f.Add([]byte(`{"epoch":1,"cycles":[{"t_s":"x"}]}`))
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		batches, err := ReadNDJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		// A short analyzer timeline keeps each execution cheap; records
		// past it take the same clamp path as at the default bound.
		Aggregate(batches, Options{MaxWindows: 64})

		var first bytes.Buffer
		if err := WriteNDJSON(&first, batches); err != nil {
			t.Fatalf("accepted stream does not write: %v", err)
		}
		again, err := ReadNDJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written stream does not read back: %v\n%s", err, first.Bytes())
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
