package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	rc := run(args, &out, &errb)
	return rc, out.String(), errb.String()
}

func TestRecordReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "xalanc.ngt")
	rc, stdout, stderr := runCLI("record", "-workload", "xalanc", "-ops", "2000", "-o", path)
	if rc != 0 {
		t.Fatalf("record exit %d, stderr: %s", rc, stderr)
	}
	if !strings.Contains(stdout, "recorded") {
		t.Errorf("record output unexpected: %s", stdout)
	}

	rc, stdout, stderr = runCLI("replay", "-i", path, "-alloc", "ptmalloc2")
	if rc != 0 {
		t.Fatalf("replay exit %d, stderr: %s", rc, stderr)
	}
	if !strings.Contains(stdout, "replay of") || !strings.Contains(stdout, "ops replayed") {
		t.Errorf("replay output unexpected: %s", stdout)
	}
	// A replay that did no work would report zero instructions.
	if strings.Contains(stdout, "instructions") && strings.Contains(stdout, " 0\n") {
		t.Logf("replay output:\n%s", stdout)
	}
}

func TestRecordValidation(t *testing.T) {
	rc, _, stderr := runCLI("record", "-workload", "larson")
	if rc != 2 || !strings.Contains(stderr, "not recordable") {
		t.Errorf("multi-thread record: exit %d, stderr %q", rc, stderr)
	}
	rc, _, stderr = runCLI("record", "-ops", "0")
	if rc != 2 || !strings.Contains(stderr, "-ops must be >= 1") {
		t.Errorf("zero ops record: exit %d, stderr %q", rc, stderr)
	}
	// Unwritable output path must fail cleanly, not crash.
	rc, _, stderr = runCLI("record", "-ops", "500", "-o", "/nonexistent-dir/trace.ngt")
	if rc != 1 || stderr == "" {
		t.Errorf("unwritable output: exit %d, stderr %q", rc, stderr)
	}
}

func TestReplayValidation(t *testing.T) {
	rc, _, stderr := runCLI("replay", "-i", "does-not-exist.ngt", "-alloc", "hoard")
	if rc != 2 || !strings.Contains(stderr, "unknown allocator") {
		t.Errorf("unknown alloc: exit %d, stderr %q", rc, stderr)
	}
	rc, _, stderr = runCLI("replay", "-i", "does-not-exist.ngt", "-alloc", "nextgen:slots=3")
	if rc != 2 || !strings.Contains(stderr, "power of two") {
		t.Errorf("malformed spec: exit %d, stderr %q", rc, stderr)
	}
	rc, _, stderr = runCLI("replay", "-i", "does-not-exist.ngt")
	if rc != 1 || stderr == "" {
		t.Errorf("missing input: exit %d, stderr %q", rc, stderr)
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"frobnicate"}} {
		rc, _, stderr := runCLI(args...)
		if rc != 2 || !strings.Contains(stderr, "usage:") {
			t.Errorf("args %v: exit %d, stderr %q", args, rc, stderr)
		}
	}
}
