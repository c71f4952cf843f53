package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run the command itself: a child started with
// runAsMain set runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runAsMain = "ASPEO_RUN_TEST_MAIN"

// aspeoRun runs the command with args and returns its stdout, stderr
// and exit code.
func aspeoRun(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return out.String(), errOut.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), 0
}

// TestRestoreRequiresSameSpecFlags: a checkpoint records the flags that
// define its session, and -restore refuses one taken under other values,
// naming the flag. A checkpoint written without that record restores as
// before.
func TestRestoreRequiresSameSpecFlags(t *testing.T) {
	base := []string{"-app", "spotify", "-controller", "-quick", "-seed", "7", "-json"}
	want, _, code := aspeoRun(t, base...)
	if code != 0 {
		t.Fatalf("uninterrupted run exited %d", code)
	}
	ck := filepath.Join(t.TempDir(), "run.ckpt.json")
	if _, stderr, code := aspeoRun(t, append(base, "-checkpoint", ck, "-checkpoint-every", "10")...); code != 0 {
		t.Fatalf("checkpointed run exited %d: %s", code, stderr)
	}
	for _, tc := range []struct {
		ckpt  string
		extra []string
		flag  string // the flag the refusal must name; "" means the restore must succeed
	}{
		{ck, nil, ""},
		{ck, []string{"-target", "0.5"}, "-target"},
		{ck, []string{"-seed", "8"}, "-seed"},
		{ck, []string{"-load", "HL"}, "-load"},
		{filepath.Join("..", "..", "internal", "experiment", "testdata", "ckpt_spotify_controller_quick_seed7.json"), nil, ""},
	} {
		args := append(append(append([]string{}, base...), tc.extra...), "-restore", tc.ckpt)
		got, stderr, code := aspeoRun(t, args...)
		switch {
		case tc.flag == "" && (code != 0 || got != want):
			t.Errorf("%v: exit %d, output equal to the uninterrupted run's: %v\n%s", args, code, got == want, stderr)
		case tc.flag != "" && code == 0:
			t.Errorf("%v: restore accepted a checkpoint taken under other flags", args)
		case tc.flag != "" && !strings.Contains(stderr, tc.flag+"="):
			t.Errorf("%v: refusal does not name %s: %s", args, tc.flag, stderr)
		}
	}
}
