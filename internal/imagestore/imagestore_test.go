// Tests for the persistent image store: a stored image round-trips to a
// machine byte-identical with a fresh boot, defective files of every
// kind come back as clean misses (never a panic, never a wrong
// machine), distinct architectures never collide, and the load fast
// path stays allocation-free where the format promises it.

package imagestore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/android"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/workload"

	_ "repro/internal/arch/sv39"
)

func bootSys(t testing.TB, opts android.Options) *android.System {
	t.Helper()
	sys, err := android.BootOpts(core.SharedPTP(), android.LayoutOriginal, workload.DefaultUniverse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func bootKey(opts android.Options) string {
	return checkpoint.Key(core.SharedPTP(), android.LayoutOriginal, workload.DefaultUniverse(), opts)
}

func openStore(t testing.TB) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), workload.DefaultUniverse())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// exercise launches, runs and exits one app — the mutation mix the
// behavioral equivalence tests replay on machines of both origins.
func exercise(t *testing.T, sys *android.System) {
	t.Helper()
	prof := workload.BuildProfile(sys.Universe, workload.Suite()[0])
	app, _, err := sys.LaunchApp(prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.Exit(app.Proc)
}

func TestRoundTrip(t *testing.T) {
	store := openStore(t)
	img := checkpoint.Capture(bootSys(t, android.Options{}))
	key := bootKey(android.Options{})

	if _, ok := store.Load(key); ok {
		t.Fatal("empty store reported a hit")
	}
	store.Save(key, img)
	loaded, ok := store.Load(key)
	if !ok {
		t.Fatal("store missed the image it just saved")
	}
	saved := bodyDigest(t, key, img)
	if bodyDigest(t, key, loaded) != saved {
		t.Error("loaded image body digest differs from the saved one")
	}

	// Forks of the loaded image must behave byte-identically to forks of
	// the original: same starting state, same state after running the
	// same workload.
	a, b := img.Fork(), loaded.Fork()
	if bodyDigest(t, key, checkpoint.Capture(a)) != bodyDigest(t, key, checkpoint.Capture(b)) {
		t.Fatal("fork of loaded image differs from fork of original")
	}
	exercise(t, a)
	exercise(t, b)
	if bodyDigest(t, key, checkpoint.Capture(a)) != bodyDigest(t, key, checkpoint.Capture(b)) {
		t.Error("identical workloads diverged between loaded-image and original forks")
	}
	// And running the loaded image's fork left the loaded image pristine.
	if bodyDigest(t, key, loaded) != saved {
		t.Error("running a fork mutated the loaded image")
	}
}

// TestCrossArch pins the key/arch invariant: images of different MMU
// architectures live under distinct keys, never shadow each other, and
// each round-trips to its own machine.
func TestCrossArch(t *testing.T) {
	armOpts := android.Options{}
	svOpts := android.Options{Arch: "sv39"}
	armKey, svKey := bootKey(armOpts), bootKey(svOpts)
	if armKey == svKey {
		t.Fatal("armv7 and sv39 boots share a cache key")
	}
	if fileName(armKey) == fileName(svKey) {
		t.Fatal("armv7 and sv39 keys hash to one store file")
	}

	store := openStore(t)
	arm := checkpoint.Capture(bootSys(t, armOpts))
	sv := checkpoint.Capture(bootSys(t, svOpts))
	store.Save(armKey, arm)
	store.Save(svKey, sv)
	if names, err := store.List(); err != nil || len(names) != 2 {
		t.Fatalf("List() = %v, %v; want two images", names, err)
	}
	for _, tc := range []struct {
		name string
		key  string
		img  *checkpoint.Image
	}{{"armv7", armKey, arm}, {"sv39", svKey, sv}} {
		loaded, ok := store.Load(tc.key)
		if !ok {
			t.Fatalf("%s image missing from store", tc.name)
		}
		if bodyDigest(t, tc.key, loaded) != bodyDigest(t, tc.key, tc.img) {
			t.Errorf("%s image round-trip changed the machine", tc.name)
		}
	}
}

// TestCacheIntegration drives the store through checkpoint.Cache: a
// first process boots cold and writes back, a second process (a fresh
// cache over the same directory) admits the stored image without
// booting.
func TestCacheIntegration(t *testing.T) {
	store := openStore(t)
	key := bootKey(android.Options{})
	boots := 0
	boot := func() (*android.System, error) {
		boots++
		return android.BootOpts(core.SharedPTP(), android.LayoutOriginal, workload.DefaultUniverse(), android.Options{})
	}

	cold := checkpoint.NewCache()
	cold.SetStore(store)
	coldImg, err := cold.Image(key, boot)
	if err != nil {
		t.Fatal(err)
	}
	if boots != 1 {
		t.Fatalf("cold cache booted %d times, want 1", boots)
	}

	warm := checkpoint.NewCache()
	warm.SetStore(store)
	warmImg, err := warm.Image(key, boot)
	if err != nil {
		t.Fatal(err)
	}
	if boots != 1 {
		t.Errorf("warm cache booted again instead of loading from the store")
	}
	if bodyDigest(t, key, warmImg) != bodyDigest(t, key, coldImg) {
		t.Error("warm-started image differs from the cold boot")
	}
}

// TestCorruptionRejected flips one bit at offsets spread across every
// region of a stored file — magic, version, checksum, directory, JSON
// metadata, each binary section — and truncates it at a spread of
// lengths. Every defect must come back as a clean miss (the loader may
// never panic or admit a wrong machine), the bad file must be removed,
// and the caller's cold-boot fallback must still produce the original
// machine.
func TestCorruptionRejected(t *testing.T) {
	store := openStore(t)
	img := checkpoint.Capture(bootSys(t, android.Options{}))
	key := bootKey(android.Options{})
	good := encodeBytes(t, key, img)
	path := filepath.Join(store.Dir(), fileName(key))
	fresh := bodyDigest(t, key, img)

	check := func(t *testing.T, mutated []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("loader panicked on defective file: %v", r)
			}
		}()
		if _, ok := store.Load(key); ok {
			t.Fatal("loader admitted a defective file")
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Error("defective file not removed after rejection")
		}
	}

	// One flipped bit at ~64 offsets spread across the whole file, plus
	// the first and last byte of every header field region.
	offsets := []int{0, 7, 8, 11, 12, 15, 16, 23, 24, 27, 28, 31, 32, headerSize - 1, len(good) - 1}
	for off := headerSize; off < len(good); off += (len(good)-headerSize)/64 + 1 {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		mutated := append([]byte(nil), good...)
		mutated[off] ^= 0x10
		t.Run("", func(t *testing.T) { check(t, mutated) })
	}
	for _, n := range []int{0, 1, headerSize - 1, headerSize, len(good) / 3, len(good) - 1} {
		t.Run("", func(t *testing.T) { check(t, good[:n:n]) })
	}

	// A future format version must be rejected even with a valid
	// checksum over the rest of the file.
	versionBumped := append([]byte(nil), good...)
	versionBumped[8]++
	t.Run("version", func(t *testing.T) { check(t, versionBumped) })

	// A valid file stored under the wrong name (key mismatch) is also
	// rejected: content addressing may never serve another boot's image.
	t.Run("wrong-key", func(t *testing.T) {
		otherKey := bootKey(android.Options{CPUs: 4})
		if err := os.WriteFile(filepath.Join(store.Dir(), fileName(otherKey)), good, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Load(otherKey); ok {
			t.Fatal("loader served an image stored under a different key")
		}
	})

	// After all those rejections the fallback path is a cold boot —
	// byte-identical to the machine the file once held.
	if got := bodyDigest(t, key, checkpoint.Capture(bootSys(t, android.Options{}))); got != fresh {
		t.Error("cold-boot fallback differs from the originally stored machine")
	}
}

// TestHugeNFramesRejected doctors a valid image's metadata to claim
// 2^32+1 physical frames, one more than an arch.FrameNum can number
// (small enough that a missing bound fails the test, not the machine's
// memory). The frame section is sized by the bump pointer, so its
// length no longer pins the frame count: mem.Restore must reject the
// count itself, before sizing anything by it, with an error and no
// panic.
func TestHugeNFramesRejected(t *testing.T) {
	good := encodeBytes(t, bootKey(android.Options{}), checkpoint.Capture(bootSys(t, android.Options{})))
	dir, err := parseHeader(good)
	if err != nil {
		t.Fatal(err)
	}
	var meta metaDoc
	if err := json.Unmarshal(section(good, dir[secMeta]), &meta); err != nil {
		t.Fatal(err)
	}
	meta.System.Kernel.Phys.NFrames = mem.MaxFrames + 1
	doc, err := json.Marshal(&meta)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = decodeImage(withSection(good, secMeta, doc), workload.DefaultUniverse())
	if err == nil || !strings.Contains(err.Error(), "snapshot of 4294967297 frames") {
		t.Errorf("decode error %v; want the frame count rejected", err)
	}
}

// TestListSorted pins deterministic store iteration: List returns image
// names in sorted order regardless of directory enumeration or creation
// order, and ignores foreign files. The fixture files were deliberately
// created out of name order.
func TestListSorted(t *testing.T) {
	dir := t.TempDir()
	ents, err := os.ReadDir("testdata/listing")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join("testdata/listing", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := Open(dir, workload.DefaultUniverse())
	if err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"00-but-sorts-first.img", "mm-middle.img", "zz-last-created.img"}
	if len(names) != len(want) {
		t.Fatalf("List() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List() = %v, want %v", names, want)
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", workload.DefaultUniverse()); err == nil {
		t.Error("Open(\"\") succeeded; want error")
	}
}

// TestParseHeaderZeroAlloc pins the mmap fast path's promise: header
// validation and section-directory extraction allocate nothing, so a
// warm load's overhead is the checksum pass plus the JSON metadata.
func TestParseHeaderZeroAlloc(t *testing.T) {
	img := checkpoint.Capture(bootSys(t, android.Options{}))
	buf := encodeBytes(t, bootKey(android.Options{}), img)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := parseHeader(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("parseHeader allocates %.0f times per call, want 0", allocs)
	}
}
