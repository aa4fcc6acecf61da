// Package checkpoint provides deterministic snapshot/fork of a complete
// simulated machine: capture a booted android.System once as an
// immutable image, then fork runnable copies in O(dirtied-state).
//
// The mechanism is the paper's own NEED_COPY trick applied to the
// simulator itself. An image holds a private clone of the machine whose
// bulky state — PTE arrays (internal/pagetable), frame metadata chunks
// (internal/mem), and page-cache contents (internal/vm) — is shared by
// reference with every fork and copied only on first write, while the
// small hot state (TLB entries, cache line arrays, CPU contexts,
// counters) is copied eagerly so forks resume from exactly the captured
// cycle. Because the image is never run, its shared state is written by
// nobody; a fork that redlines its own copy never changes the image, so
// any number of forks behave exactly like fresh boots. That determinism
// invariant is pinned end to end by the golden tests (TestGolden in
// internal/experiments and cmd/satsim), which run every campaign from
// fresh boots and from forks and diff both against one output.
//
// Cache memoizes images by a canonical key of the boot parameters
// (Key), so sweeps that boot the same prefix many times — every
// campaign in internal/experiments — simulate it once and fork it
// everywhere.
package checkpoint

import (
	"fmt"
	"sync"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/workload"
)

// Image is an immutable snapshot of a booted machine. Create with
// Capture; mint runnable machines with Fork. The image's own machine is
// never exposed to callers, so nothing can mutate it.
//
//satlint:frozen captured boot state is shared copy-on-write by every fork
type Image struct {
	proto *android.System
}

// Capture snapshots sys into an immutable image. The snapshot is one
// machine clone: sys itself stays usable and is not referenced by the
// image afterwards, so later mutations of sys do not leak in.
func Capture(sys *android.System) *Image {
	return &Image{proto: sys.Clone()}
}

// Fork mints a runnable machine from the image. The fork shares PTE
// arrays, frame-metadata chunks and page-cache maps with the image
// copy-on-write and copies only the small hot state, so an unmodified
// fork allocates nothing per page-table page.
func (img *Image) Fork() *android.System {
	return img.proto.Clone()
}

// Adopt wraps an already-private machine as an image without the
// defensive clone Capture performs. The caller transfers ownership: sys
// must never be run or mutated afterwards. This is the admission path
// for deserialized machines (internal/imagestore), which are fresh by
// construction — cloning them would only copy state nobody else holds.
func Adopt(sys *android.System) *Image {
	return &Image{proto: sys}
}

// Proto exposes the image's captured machine for serialization. It must
// be treated as strictly read-only: the immutability of this machine is
// what makes every Fork byte-identical to a fresh boot.
func (img *Image) Proto() *android.System {
	return img.proto
}

// Boot is the prefix simulation a Cache memoizes: it boots a fresh
// machine for the given parameters.
type Boot func() (*android.System, error)

// centry is one cache slot; once makes concurrent sweep workers asking
// for the same prefix boot it exactly once.
type centry struct {
	once sync.Once
	img  *Image
	err  error
}

// ImageStore is a persistent second level under the in-memory cache: a
// Load hit skips the boot entirely, a miss falls back to booting and the
// result is written back with Save. Implementations must only return
// verified images — a Load hit is admitted to the cache without further
// checks, so corrupt or stale entries must come back as a miss (see
// internal/imagestore, which admits an image only if re-encoding the
// restored machine reproduces the digest stored with it).
// Both methods may be called concurrently.
type ImageStore interface {
	// Load returns the verified image stored under key, or false.
	Load(key string) (*Image, bool)
	// Save persists the image under key, best-effort: a store that
	// cannot write simply leaves the next process to boot cold.
	Save(key string, img *Image)
}

// Cache memoizes checkpoint images by prefix key. The zero value is not
// usable; construct with NewCache. Safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	m     map[string]*centry
	store ImageStore
}

// NewCache returns an empty image cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]*centry)}
}

// SetStore attaches a persistent image store consulted between the
// in-memory cache and the boot function: miss → store load → cold boot
// plus write-back. Call before the first Image request; a nil store
// (the default) keeps the cache purely in-memory.
func (c *Cache) SetStore(s ImageStore) {
	c.mu.Lock()
	c.store = s
	c.mu.Unlock()
}

// Image returns the memoized image for key, booting and capturing it on
// first request. Every concurrent caller with the same key shares one
// boot. A boot error is memoized too: retrying a deterministic boot
// cannot succeed. With an attached ImageStore the boot is first short-
// circuited by a verified store load, and a cold boot is written back.
func (c *Cache) Image(key string, boot Boot) (*Image, error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &centry{}
		c.m[key] = e
	}
	store := c.store
	c.mu.Unlock()
	e.once.Do(func() {
		if store != nil {
			if img, ok := store.Load(key); ok {
				e.img = img
				return
			}
		}
		sys, err := boot()
		if err != nil {
			e.err = err
			return
		}
		e.img = Capture(sys)
		if store != nil {
			store.Save(key, e.img)
		}
	})
	return e.img, e.err
}

// Key canonicalizes the boot parameters of android.BootOpts into a
// memoization key: any two boots with equal keys produce identical
// machines (boot is deterministic in these parameters), so they may
// share one image. The universe is keyed by its content hash and the
// architecture name is normalized (empty means armv7, matching
// android.BootOpts), so the key is stable across processes — it doubles
// as the persistent image-store key (internal/imagestore), where a
// pointer identity or an arch alias would either never hit or collide
// ARMv7 and Sv39 images.
func Key(cfg core.Config, layout android.Layout, u *workload.Universe, opts android.Options) string {
	if opts.Arch == "" {
		opts.Arch = "armv7"
	}
	return fmt.Sprintf("cfg=%+v layout=%d universe=%s opts=%+v", cfg, layout, u.ContentHash(), opts)
}
