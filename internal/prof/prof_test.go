package prof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartDisabled(t *testing.T) {
	stop, err := Start(Options{})
	if err != nil {
		t.Fatalf("Start(Options{}) error: %v", err)
	}
	if stop == nil {
		t.Fatal("Start returned nil stop")
	}
	if err := stop(); err != nil {
		t.Fatalf("stop error: %v", err)
	}
}

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	o := Options{
		CPU: filepath.Join(dir, "cpu.pprof"),
		Mem: filepath.Join(dir, "mem.pprof"),
	}
	stop, err := Start(o)
	if err != nil {
		t.Fatalf("Start error: %v", err)
	}
	// Allocate so the heap profile has something to sample; the
	// assertion is only that valid files appear.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<12))
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatalf("stop error: %v", err)
	}
	for _, p := range []string{o.CPU, o.Mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestStartBadPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof")
	if _, err := Start(Options{CPU: bad}); err == nil {
		t.Fatal("Start with uncreatable path: want error, got nil")
	}
}
