// Layer benchmarks of the image store. BenchmarkImageLoad vs
// BenchmarkImageBoot is the store's reason to exist: admitting a stored
// image (mmap + checksum + JSON metadata + in-place casts + fingerprint
// verification) versus simulating the boot it replaces.
// BenchmarkImageSave is the write-back a cold boot pays (fingerprint
// digest + streamed write of a whole image file), and
// BenchmarkFingerprintDigest isolates the digest that both save and
// load compute. perfbench's imagestore.save_ms and imagestore.load_ms
// attribute the same layers end to end; CHANGES.md keeps the load/boot
// figures measured when the store was introduced.

package imagestore

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/android"
	"repro/internal/checkpoint"
)

func BenchmarkImageBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := bootSys(b, android.Options{})
		if sys == nil {
			b.Fatal("boot returned nil")
		}
	}
}

func BenchmarkImageLoad(b *testing.B) {
	store := openStore(b)
	key := bootKey(android.Options{})
	store.Save(key, checkpoint.Capture(bootSys(b, android.Options{})))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, ok := store.Load(key)
		if !ok {
			b.Fatal("store missed")
		}
		_ = img
	}
}

// BenchmarkImageSave writes one boot image per op, each into an empty
// store: Save skips keys already stored, so the previous op's file is
// removed (off the clock) before the next Save.
func BenchmarkImageSave(b *testing.B) {
	store := openStore(b)
	key := bootKey(android.Options{})
	path := filepath.Join(store.Dir(), fileName(key))
	img := checkpoint.Capture(bootSys(b, android.Options{}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			b.Fatal(err)
		}
		b.StartTimer()
		store.Save(key, img)
	}
	b.StopTimer()
	if _, ok := store.Load(key); !ok {
		b.Fatal("saved image did not load")
	}
}

func BenchmarkFingerprintDigest(b *testing.B) {
	img := checkpoint.Capture(bootSys(b, android.Options{}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = img.FingerprintDigest()
	}
}

// digestSink keeps the compiler from discarding the benchmarked digest.
var digestSink [32]byte
