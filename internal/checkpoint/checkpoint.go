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
// invariant is pinned by the fork-vs-fresh differential tests.
//
// Cache memoizes images by a canonical key of the boot parameters
// (Key), so sweeps that boot the same prefix many times — every
// campaign in internal/experiments — simulate it once and fork it
// everywhere.
package checkpoint

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/tlb"
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
// internal/imagestore, which gates admission on the stored fingerprint).
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

// Fingerprint renders the image's complete observable state as a string:
// kernel and allocator counters, sharing stats, every process's regions,
// page tables and context, every page-cache file, the allocator state
// (memory size, bump pointer, free list and every stored frame), and
// every core's cycle count, cache occupancy and valid TLB entries with
// their slots and fields. Two fingerprints are equal iff the machines are
// observably identical; the aliasing-hazard tests take one before and
// after mutating a fork to prove the image never changes. The text runs
// to hundreds of kilobytes on a booted machine; callers that only
// compare images should use FingerprintDigest, which renders the same
// bytes without holding them.
func (img *Image) Fingerprint() string {
	var b strings.Builder
	img.writeFingerprint(&b)
	return b.String()
}

// FingerprintDigest returns the SHA-256 of Fingerprint's text, streamed
// through the hash instead of materialized: equal to
// sha256.Sum256([]byte(img.Fingerprint())).
func (img *Image) FingerprintDigest() [sha256.Size]byte {
	h := sha256.New()
	w := bufio.NewWriterSize(h, 32<<10)
	img.writeFingerprint(w)
	_ = w.Flush() // a hash.Hash never returns a write error
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// writeFingerprint renders the fingerprint text to w, the one renderer
// behind both sinks. Its bulk loops — the valid PTEs of every leaf
// table, the pages of every page-cache file, the frame table and the
// TLB entries — append each line into a reused scratch slice with
// strconv and write it whole; everything else is a few lines per
// process or core. Write errors are ignored:
// both sinks are in-memory and cannot fail.
func (img *Image) writeFingerprint(w io.Writer) {
	sys := img.proto
	k := sys.Kernel

	fmt.Fprintf(w, "counters=%+v\n", k.Counters)
	ps := k.Phys.Stats()
	fmt.Fprintf(w, "phys alloc=%d freed=%d inuse=%d kinds=", ps.Allocated, ps.Freed, ps.InUse)
	kinds := make([]int, 0, len(ps.ByKind))
	for kind := range ps.ByKind {
		kinds = append(kinds, int(kind))
	}
	sort.Ints(kinds)
	for _, kind := range kinds {
		fmt.Fprintf(w, "%d:%d,", kind, ps.ByKind[mem.FrameKind(kind)])
	}
	fmt.Fprintf(w, "\nsharing=%+v\n", k.SharingStats())

	var line []byte
	for _, p := range k.Processes() {
		fmt.Fprintf(w, "proc %d %q zygote=%v child=%v alive=%v forkstats=%+v ptescopied=%d\n",
			p.PID, p.Name, p.IsZygote, p.IsZygoteChild, p.Alive(), p.ForkStats, p.PTEsCopied)
		fmt.Fprintf(w, "  ctx asid=%d dacr=%#x stats=%+v\n", p.Ctx.ASID, p.Ctx.DACR, p.Ctx.Stats)
		fmt.Fprintf(w, "  mm counters=%+v ptstats=%+v\n", p.MM.Counters, p.MM.PT.Stats())
		for _, v := range p.MM.VMAs() {
			name := ""
			if v.File != nil {
				name = v.File.Name
			}
			fmt.Fprintf(w, "  vma %#x-%#x prot=%v flags=%d file=%q off=%d name=%q cat=%d\n",
				v.Start, v.End, v.Prot, v.Flags, name, v.FileOff, v.Name, v.Category)
		}
		for idx := 0; idx < p.MM.PT.NumSlots(); idx++ {
			e := p.MM.PT.Slot(idx)
			if !e.Valid() {
				continue
			}
			fmt.Fprintf(w, "  l1[%d] frame=%d domain=%d needcopy=%v pop=%d:",
				idx, e.Table.Frame, e.Domain, e.NeedCopy, e.Table.Populated())
			line = line[:0]
			for i := 0; i < e.Table.Len(); i++ {
				if pte := e.Table.PTE(i); pte.Valid() {
					line = append(line, ' ')
					line = strconv.AppendInt(line, int64(i), 10)
					line = append(line, '=')
					line = strconv.AppendUint(line, uint64(pte.Frame), 10)
					line = append(line, '/')
					line = strconv.AppendUint(line, uint64(pte.Flags), 10)
					line = append(line, '/')
					line = strconv.AppendUint(line, uint64(pte.Soft), 10)
				}
			}
			line = append(line, '\n')
			w.Write(line)
		}
	}

	for _, f := range sys.Files() {
		if f == nil {
			continue
		}
		fmt.Fprintf(w, "file %q size=%d resident=%d:", f.Name, f.Size, f.ResidentPages())
		line = line[:0]
		f.ForEachPage(func(idx int, frame arch.FrameNum) {
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(idx), 10)
			line = append(line, '=')
			line = strconv.AppendUint(line, uint64(frame), 10)
		})
		line = append(line, '\n')
		w.Write(line)
	}

	line = writeFrames(w, line, k.Phys)

	for i := 0; i < k.NumCPUs(); i++ {
		c := k.CPUAt(i)
		fmt.Fprintf(w, "cpu%d now=%d l1i=%d l1d=%d\n",
			i, c.Now(), c.Caches.L1I.Occupancy(), c.Caches.L1D.Occupancy())
		for _, t := range [3]*tlb.TLB{c.MicroI, c.MicroD, c.Main} {
			line = writeTLB(w, line, t)
		}
	}
	fmt.Fprintf(w, "l2=%d\n", k.CPUAt(0).Caches.L2.Occupancy())

	reg := obs.NewRegistry()
	reg.MustRegister(k.Sources()...)
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := snap[name]
		keys := make([]string, 0, len(m))
		for key := range m {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "src %s:", name)
		for _, key := range keys {
			fmt.Fprintf(w, " %s=%d", key, m[key])
		}
		io.WriteString(w, "\n")
	}
}

// writeFrames renders the allocator state the image stores, using line
// as scratch, and returns it for reuse: the memory size, the bump
// pointer, the free list in order, and every frame of the stored chunks.
// The frames go run-length encoded, so the ~10k of a booted machine take
// a few lines' worth: "kind/mapcount*n" is n consecutive frames each
// numbered by its own index, "@num:kind/mapcount*n" n consecutive frames
// numbered num (0 for a frame never written).
func writeFrames(w io.Writer, line []byte, m *mem.PhysMem) []byte {
	s := m.SnapshotState()
	line = fmt.Appendf(line[:0], "phys nframes=%d next=%d free=%d:", s.NFrames, s.Next, len(s.FreeList))
	for _, fn := range s.FreeList {
		line = append(line, ' ')
		line = strconv.AppendUint(line, uint64(fn), 10)
	}
	line = append(line, "\nframes:"...)
	type run struct {
		own      bool
		num      arch.FrameNum
		kind     mem.FrameKind
		mapCount int
	}
	var cur run
	n := 0
	emit := func() {
		if n == 0 {
			return
		}
		line = append(line, ' ')
		if !cur.own {
			line = append(line, '@')
			line = strconv.AppendUint(line, uint64(cur.num), 10)
			line = append(line, ':')
		}
		line = strconv.AppendUint(line, uint64(cur.kind), 10)
		line = append(line, '/')
		line = strconv.AppendInt(line, int64(cur.mapCount), 10)
		line = append(line, '*')
		line = strconv.AppendInt(line, int64(n), 10)
	}
	i := arch.FrameNum(0)
	for _, c := range s.Chunks {
		for _, f := range c {
			r := run{own: f.Num == i, kind: f.Kind, mapCount: f.MapCount}
			if !r.own {
				r.num = f.Num
			}
			if r != cur {
				emit()
				cur, n = r, 0
			}
			n++
			i++
		}
	}
	emit()
	line = append(line, '\n')
	w.Write(line)
	return line
}

// writeTLB renders one TLB's stored state, using line as scratch, and
// returns it for reuse: its name, hardware domain matching and clock,
// then each valid entry as
// "slot=vpn/asid/global/large/domain/frame/flags/lastuse".
func writeTLB(w io.Writer, line []byte, t *tlb.TLB) []byte {
	s := t.SnapshotState()
	line = fmt.Appendf(line[:0], "  tlb %s hw=%v clock=%d:", s.Name, s.DomainMatchInHW, s.Clock)
	for slot, e := range s.Entries {
		if !e.Valid {
			continue
		}
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(slot), 10)
		sep := byte('=')
		for _, v := range [...]uint64{uint64(e.VPN), uint64(e.ASID), bit(e.Global), bit(e.Large),
			uint64(e.Domain), uint64(e.Frame), uint64(e.Flags), e.LastUse} {
			line = append(line, sep)
			line = strconv.AppendUint(line, v, 10)
			sep = '/'
		}
	}
	line = append(line, '\n')
	w.Write(line)
	return line
}

// bit renders a flag as 0 or 1.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
