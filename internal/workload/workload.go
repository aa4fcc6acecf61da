// Package workload defines the synthetic application suite that stands in
// for the paper's eleven benchmark programs (Angrybirds, Adobe Reader, the
// Android and Chrome browsers with Chrome's three processes, Email, Google
// Calendar, MX Player, Laya Music Player, and WPS).
//
// We do not have the Google Play binaries, the authors' page-fault and
// perf traces, or a tablet to run them on, so each application is modeled
// by a profile whose first-order statistics are calibrated to what the
// paper publishes:
//
//   - Table 1's user/kernel instruction split,
//   - Table 3's count of instruction PTEs inherited from the zygote on
//     cold and warm starts,
//   - Figure 2/3's breakdown of the instruction footprint by category
//     (zygote-preloaded dynamic libraries, zygote-preloaded Java code,
//     app_process, other dynamic libraries, private code),
//   - Table 2's cross-application overlap of shared code, and
//   - Figure 4's sparsity of 64KB chunks.
//
// The profiles are *generative*: page sets are sampled deterministically
// (per-app seeds) from a shared universe of zygote-preloaded code pages,
// with a hotness bias that produces the cross-application overlap and a
// scatter that produces the large-page sparsity. The experiments then
// *measure* faults, PTP counts, and TLB behavior by actually running the
// profiles on the simulated kernel — none of the paper's result numbers
// are fed in directly.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Lib describes one zygote-preloaded dynamic shared library.
type Lib struct {
	// Name is the library's file name.
	Name string
	// CodePages is the size of the code (r-x) segment in 4KB pages.
	CodePages int
	// DataPages is the size of the data (rw-) segment in 4KB pages.
	DataPages int
}

// Universe is the shared code landscape every application samples from:
// the zygote's program binary, the preloaded dynamic libraries, and the
// AOT-compiled Java boot image.
type Universe struct {
	// AppProcessPages is the code size of the zygote's C++ program
	// binary, app_process.
	AppProcessPages int
	// Libs are the preloaded dynamic shared libraries, including the
	// dynamic loader (sizes range from one page to several MB, as the
	// paper reports 4KB to ~35MB for preloaded shared code).
	Libs []Lib
	// JavaCodePages is the code size of the ART boot image (the
	// zygote-preloaded Java shared libraries compiled to native code).
	JavaCodePages int
	// JavaDataPages is the boot image's data size.
	JavaDataPages int

	// hotOrder ranks all preloaded code pages from hottest to coldest;
	// the zygote's boot-time footprint is its prefix, and applications
	// sample with a bias toward the front, which is what produces the
	// cross-application overlap of Table 2.
	hotOrder []int
	// zygoteTouched is the number of leading hotOrder pages the zygote
	// itself populates at boot (5,900 instruction PTEs in the paper).
	zygoteTouched int
}

// ZygoteTouchedPTEs is the number of preloaded-code instruction PTEs the
// zygote populates before any application is forked (Section 4.2.1).
const ZygoteTouchedPTEs = 5900

// DefaultUniverse deterministically builds the preloaded-code landscape:
// 88 dynamic libraries totalling ~40MB of code, a ~20MB Java boot image,
// and a small app_process binary.
//
// The fixed seed below is deliberate and distinct from the per-app
// AppSpec.Seed that BuildProfile plumbs through: the universe is the one
// shared landscape every experiment runs against — the paper measures
// many applications on ONE device image — so it must be identical across
// all sessions, sweeps and workers (checkpoint keys embed its content
// hash). Per-application randomness enters later, in BuildProfile,
// seeded from each AppSpec. Changing this constant changes every golden
// file; TestUniverseSeedIsFixed pins the separation.
func DefaultUniverse() *Universe {
	rng := rand.New(rand.NewSource(42))
	u := &Universe{
		AppProcessPages: 30,
		JavaCodePages:   5000,
		JavaDataPages:   600,
	}
	// Library size distribution: a heavy tail of small libraries and a
	// few large ones (libwebviewchromium, libskia, ...), drawn from a
	// log-uniform distribution over [1, 1024] pages (4KB..4MB), with the
	// dynamic loader first.
	u.Libs = append(u.Libs, Lib{Name: "linker", CodePages: 24, DataPages: 4})
	total := 24
	for i := 1; i < 88; i++ {
		size := int(math.Exp(rng.Float64() * math.Log(1024))) // 1..1024
		if size < 1 {
			size = 1
		}
		data := size / 6
		if data < 1 {
			data = 1
		}
		u.Libs = append(u.Libs, Lib{
			Name:      fmt.Sprintf("lib%02d.so", i),
			CodePages: size,
			DataPages: data,
		})
		total += size
	}
	// Scale the generated sizes so the dynamic-library code totals about
	// 10,000 pages (~40MB), keeping the paper's overall footprint scale.
	const wantDynPages = 10000
	scale := float64(wantDynPages) / float64(total)
	for i := range u.Libs {
		c := int(float64(u.Libs[i].CodePages) * scale)
		if c < 1 {
			c = 1
		}
		d := c / 6
		if d < 1 {
			d = 1
		}
		u.Libs[i].CodePages = c
		u.Libs[i].DataPages = d
	}
	u.buildHotOrder(rng)
	return u
}

// buildHotOrder ranks pages: entry regions of every library are hot (the
// paper finds up to 62 of the 88 preloaded libraries invoked per app, with
// sparse access within each), followed by progressively colder pages.
func (u *Universe) buildHotOrder(rng *rand.Rand) {
	n := u.TotalCodePages()
	type ranked struct {
		page int
		key  float64
	}
	rs := make([]ranked, 0, n)
	// app_process first: it is always executed (it is every app's main
	// program), so its pages are among the hottest.
	for p := 0; p < u.AppProcessPages; p++ {
		rs = append(rs, ranked{page: p, key: rng.Float64() * 0.05})
	}
	off := u.AppProcessPages
	for _, lib := range u.Libs {
		for i := 0; i < lib.CodePages; i++ {
			// Pages near the front of a library (its exported entry
			// points and hot paths) rank hotter; deep pages are cold.
			depth := float64(i) / float64(lib.CodePages)
			rs = append(rs, ranked{page: off + i, key: depth + rng.Float64()*0.7})
		}
		off += lib.CodePages
	}
	for i := 0; i < u.JavaCodePages; i++ {
		depth := float64(i) / float64(u.JavaCodePages)
		rs = append(rs, ranked{page: off + i, key: depth + rng.Float64()*0.7})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].key < rs[j].key })
	u.hotOrder = make([]int, n)
	for i, r := range rs {
		u.hotOrder[i] = r.page
	}
	u.zygoteTouched = ZygoteTouchedPTEs
	if u.zygoteTouched > n {
		u.zygoteTouched = n
	}
}

// TotalCodePages returns the number of preloaded code pages in the
// universe (app_process + dynamic libraries + Java boot image).
func (u *Universe) TotalCodePages() int {
	n := u.AppProcessPages
	for _, l := range u.Libs {
		n += l.CodePages
	}
	return n + u.JavaCodePages
}

// DynLibCodePages returns the number of dynamic-library code pages.
func (u *Universe) DynLibCodePages() int {
	n := 0
	for _, l := range u.Libs {
		n += l.CodePages
	}
	return n
}

// ZygoteSet returns the page indexes the zygote populates at boot, in
// hotness order. The slice is the universe's own state, shared by every
// caller and every sweep worker, so it is read-only: callers must not
// write to it. Its capacity ends at its length, so an append copies.
func (u *Universe) ZygoteSet() []int {
	n := u.zygoteTouched
	return u.hotOrder[:n:n]
}

// Segment identifies which preloaded object a code page belongs to.
type Segment struct {
	// Kind is the owner: "app_process", "dynlib", or "java".
	Kind string
	// LibIndex is the index into Libs when Kind is "dynlib".
	LibIndex int
	// Offset is the page offset within the owner's code segment.
	Offset int
}

// PageSegment locates global code page idx.
func (u *Universe) PageSegment(idx int) Segment {
	if idx < u.AppProcessPages {
		return Segment{Kind: "app_process", Offset: idx}
	}
	idx -= u.AppProcessPages
	for i, l := range u.Libs {
		if idx < l.CodePages {
			return Segment{Kind: "dynlib", LibIndex: i, Offset: idx}
		}
		idx -= l.CodePages
	}
	if idx < u.JavaCodePages {
		return Segment{Kind: "java", Offset: idx}
	}
	panic(fmt.Sprintf("workload: page index %d out of range", idx))
}

// AppSpec parameterizes one application of the suite.
type AppSpec struct {
	// Name is the benchmark name as in the paper's tables.
	Name string
	// Seed drives the app's deterministic sampling.
	Seed int64
	// UserPct is the percentage of instructions fetched from user space
	// (Table 1); the rest execute in the kernel (I/O-heavy apps like
	// Chrome Privilege, MX Player and WPS run mostly in the kernel).
	UserPct float64
	// ColdPTEs is the number of preloaded-code instruction PTEs the app
	// would inherit from the zygote on a cold start (Table 3).
	ColdPTEs int
	// WarmPTEs is the inherited count after the app's first
	// instantiation has populated its own shared-code pages (Table 3).
	WarmPTEs int
	// OtherLibPages is the instruction footprint of application- and
	// platform-specific dynamic libraries not preloaded by the zygote.
	OtherLibPages int
	// PrivateCodePages is the app's private code footprint.
	PrivateCodePages int
	// AppFilePages is the app-specific file-backed data footprint
	// (assets, media, databases) whose faults PTP sharing cannot
	// eliminate; media players and document editors dominate here.
	AppFilePages int
	// AnonPages is the anonymous working set (heap, ART arenas).
	AnonPages int
	// DataWriteLibFrac is the fraction of used preloaded libraries
	// whose data segment the app writes (global-variable updates) —
	// the writes that cost code-PTP sharing under the original layout.
	DataWriteLibFrac float64
	// FetchShares is the dynamic instruction-fetch distribution over
	// {private, zygote dynlib, zygote java, other dynlib, app_process},
	// normalized to 1 (Figure 3).
	FetchShares [5]float64
}

// Fetch-share component indexes.
const (
	FetchPrivate = iota
	FetchZygoteDyn
	FetchZygoteJava
	FetchOtherDyn
	FetchAppProcess
)

// Suite returns the eleven benchmark profiles. ColdPTEs and WarmPTEs are
// Table 3 verbatim (×10²); UserPct is Table 1 verbatim; the footprint
// and fetch-share parameters are calibrated to Figures 2, 3 and 10.
func Suite() []AppSpec {
	def := [5]float64{0.02, 0.61, 0.11, 0.26, 0.002}
	return []AppSpec{
		{Name: "Angrybirds", Seed: 101, UserPct: 92.2, ColdPTEs: 1370, WarmPTEs: 2500,
			OtherLibPages: 900, PrivateCodePages: 120, AppFilePages: 260, AnonPages: 900,
			DataWriteLibFrac: 0.30, FetchShares: def},
		{Name: "Adobe Reader", Seed: 102, UserPct: 93.3, ColdPTEs: 1820, WarmPTEs: 5500,
			OtherLibPages: 1400, PrivateCodePages: 200, AppFilePages: 5200, AnonPages: 1200,
			DataWriteLibFrac: 0.35, FetchShares: def},
		{Name: "Android Browser", Seed: 103, UserPct: 85.8, ColdPTEs: 1770, WarmPTEs: 5900,
			OtherLibPages: 700, PrivateCodePages: 80, AppFilePages: 8200, AnonPages: 1600,
			DataWriteLibFrac: 0.40, FetchShares: [5]float64{0.01, 0.66, 0.13, 0.20, 0.002}},
		{Name: "Chrome", Seed: 104, UserPct: 85.3, ColdPTEs: 1480, WarmPTEs: 2500,
			OtherLibPages: 2600, PrivateCodePages: 300, AppFilePages: 2600, AnonPages: 1800,
			DataWriteLibFrac: 0.40, FetchShares: [5]float64{0.02, 0.38, 0.08, 0.52, 0.002}},
		{Name: "Chrome Sandbox", Seed: 105, UserPct: 88.8, ColdPTEs: 780, WarmPTEs: 1000,
			OtherLibPages: 1300, PrivateCodePages: 150, AppFilePages: 450, AnonPages: 700,
			DataWriteLibFrac: 0.25, FetchShares: [5]float64{0.02, 0.35, 0.05, 0.58, 0.002}},
		{Name: "Chrome Privilege", Seed: 106, UserPct: 27.9, ColdPTEs: 840, WarmPTEs: 1100,
			OtherLibPages: 850, PrivateCodePages: 100, AppFilePages: 500, AnonPages: 500,
			DataWriteLibFrac: 0.25, FetchShares: [5]float64{0.02, 0.40, 0.06, 0.52, 0.002}},
		{Name: "Email", Seed: 107, UserPct: 87.1, ColdPTEs: 640, WarmPTEs: 1300,
			OtherLibPages: 500, PrivateCodePages: 60, AppFilePages: 700, AnonPages: 600,
			DataWriteLibFrac: 0.25, FetchShares: [5]float64{0.01, 0.70, 0.14, 0.15, 0.002}},
		{Name: "Google Calendar", Seed: 108, UserPct: 96.2, ColdPTEs: 1520, WarmPTEs: 2500,
			OtherLibPages: 600, PrivateCodePages: 60, AppFilePages: 180, AnonPages: 700,
			DataWriteLibFrac: 0.20, FetchShares: [5]float64{0.01, 0.72, 0.14, 0.13, 0.002}},
		{Name: "MX Player", Seed: 109, UserPct: 59.3, ColdPTEs: 2300, WarmPTEs: 5800,
			OtherLibPages: 1700, PrivateCodePages: 250, AppFilePages: 16000, AnonPages: 1400,
			DataWriteLibFrac: 0.35, FetchShares: def},
		{Name: "Laya Music Player", Seed: 110, UserPct: 82.6, ColdPTEs: 1740, WarmPTEs: 3400,
			OtherLibPages: 1200, PrivateCodePages: 140, AppFilePages: 3300, AnonPages: 800,
			DataWriteLibFrac: 0.30, FetchShares: def},
		{Name: "WPS", Seed: 111, UserPct: 47.1, ColdPTEs: 1500, WarmPTEs: 2400,
			OtherLibPages: 2100, PrivateCodePages: 450, AppFilePages: 7800, AnonPages: 1500,
			DataWriteLibFrac: 0.35, FetchShares: [5]float64{0.04, 0.52, 0.09, 0.35, 0.002}},
	}
}

// HelloWorldSpec is the example HelloWorld application from the Android
// open source project, used by the paper for the application-launch
// experiments of Section 4.2.2: its launch window (which ends right
// before application-specific Java classes load) is identical to every
// other app's, and its own footprint is tiny.
func HelloWorldSpec() AppSpec {
	return AppSpec{
		Name: "HelloWorld", Seed: 999, UserPct: 90.0,
		ColdPTEs: 1500, WarmPTEs: 1600,
		OtherLibPages: 50, PrivateCodePages: 10, AppFilePages: 20, AnonPages: 120,
		DataWriteLibFrac: 0.2,
		FetchShares:      [5]float64{0.01, 0.70, 0.14, 0.15, 0.002},
	}
}

// SpecByName returns the suite entry with the given name.
func SpecByName(name string) (AppSpec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return AppSpec{}, fmt.Errorf("workload: unknown application %q", name)
}

// Profile is the materialized access pattern of one application: the
// concrete page sets its run touches.
type Profile struct {
	// Spec is the source parameters.
	Spec AppSpec
	// ZygotePreloaded is the set of preloaded code pages (global
	// indexes into the universe) the app executes, sorted. Its
	// intersection with the zygote's boot-time set has size
	// ~Spec.ColdPTEs and its total size is ~Spec.WarmPTEs.
	ZygotePreloaded []int
	// InheritedCold is the subset of ZygotePreloaded inside the
	// zygote's boot-time footprint.
	InheritedCold []int
	// UsedLibs is the set of preloaded dynamic libraries the app
	// invokes (paper: up to 62 of 88).
	UsedLibs []int
	// DataWriteLibs is the subset of UsedLibs whose data segment the
	// app writes during execution.
	DataWriteLibs []int
}

// BuildProfile samples the application's page sets from the universe.
func BuildProfile(u *Universe, spec AppSpec) *Profile {
	rng := rand.New(rand.NewSource(spec.Seed))
	p := &Profile{Spec: spec}

	nCold := spec.ColdPTEs
	if nCold > u.zygoteTouched {
		nCold = u.zygoteTouched
	}
	nNew := spec.WarmPTEs - spec.ColdPTEs
	if rest := u.TotalCodePages() - u.zygoteTouched; nNew > rest {
		nNew = rest
	}

	// Cold pages: biased sample from the zygote's boot-time footprint.
	// The quadratic rank bias concentrates every app on the same hot
	// prefix, producing the ~38% pairwise overlap of Table 2.
	cold := sampleBiased(rng, u.hotOrder[:u.zygoteTouched], nCold, 3.5)
	// New pages: mildly biased sample from the colder remainder; the
	// scatter across the large remainder produces the 64KB sparsity of
	// Figure 4.
	fresh := sampleBiased(rng, u.hotOrder[u.zygoteTouched:], nNew, 4.0)

	p.InheritedCold = append([]int(nil), cold...)
	p.ZygotePreloaded = append(append([]int(nil), cold...), fresh...)
	sort.Ints(p.InheritedCold)
	sort.Ints(p.ZygotePreloaded)

	// Used libraries: every library with at least one executed page.
	used := make(map[int]bool)
	for _, pg := range p.ZygotePreloaded {
		seg := u.PageSegment(pg)
		if seg.Kind == "dynlib" {
			used[seg.LibIndex] = true
		}
	}
	for li := range used {
		p.UsedLibs = append(p.UsedLibs, li)
	}
	sort.Ints(p.UsedLibs)

	// Data-writing libraries: a deterministic subset of the used ones.
	nw := int(float64(len(p.UsedLibs)) * spec.DataWriteLibFrac)
	perm := rng.Perm(len(p.UsedLibs))
	for _, i := range perm[:nw] {
		p.DataWriteLibs = append(p.DataWriteLibs, p.UsedLibs[i])
	}
	sort.Ints(p.DataWriteLibs)
	return p
}

// sampleBiased draws n distinct elements from order (hotness-ranked) with
// probability density proportional to rank^-something: index floor(m*u^b)
// for uniform u favors the front for b > 1.
func sampleBiased(rng *rand.Rand, order []int, n int, bias float64) []int {
	if n >= len(order) {
		return append([]int(nil), order...)
	}
	chosen := make([]bool, len(order))
	out := make([]int, 0, n)
	for len(out) < n {
		idx := int(float64(len(order)) * math.Pow(rng.Float64(), bias))
		if idx >= len(order) {
			idx = len(order) - 1
		}
		// Linear-probe to the next unchosen rank to keep this O(n).
		for chosen[idx] {
			idx++
			if idx == len(order) {
				idx = 0
			}
		}
		chosen[idx] = true
		out = append(out, order[idx])
	}
	return out
}

// Overlap returns |a ∩ b| for two sorted page sets.
func Overlap(a, b []int) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
