// Command tracedump applies the paper's measurement methodology (Section
// 4.1.1) to one application run and dumps the raw material: the
// /proc/pid/smaps-style region map, the page-fault trace summary, the
// instruction footprint breakdown, the Figure 4 sparsity CDF as CSV, and
// the tail of the kernel's event stream (an obs.Ring capture filtered to
// the memory-management events, cache traffic excluded).
//
// Usage:
//
//	tracedump [-app NAME] [-what smaps|faults|footprint|cdf|events|all] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	app := flag.String("app", "Email", "application to trace")
	what := flag.String("what", "all", "smaps, faults, footprint, cdf, events, or all")
	asJSON := flag.Bool("json", false, "emit one JSON document instead of text")
	flag.Parse()
	if err := run(*app, *what, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}
}

// jsonDump is the machine-readable form of the trace.
type jsonDump struct {
	App       string         `json:"app"`
	Regions   []jsonRegion   `json:"regions"`
	Faults    map[string]int `json:"faults"`
	ExecPages int            `json:"exec_pages"`
	Footprint map[string]int `json:"footprint_by_category"`
	Sparsity  jsonSparsity   `json:"sparsity"`
}

type jsonRegion struct {
	Start    uint32 `json:"start"`
	End      uint32 `json:"end"`
	Prot     string `json:"prot"`
	Name     string `json:"name"`
	Category string `json:"category"`
	Resident int    `json:"resident_pages"`
}

type jsonSparsity struct {
	Pages4KB   int       `json:"pages_4kb"`
	Chunks64KB int       `json:"chunks_64kb"`
	Waste      float64   `json:"waste_factor"`
	CDF        []float64 `json:"cdf_untouched_0_to_15"`
}

func run(appName, what string, asJSON bool) error {
	spec, err := workload.SpecByName(appName)
	if err != nil {
		return err
	}
	u := workload.DefaultUniverse()
	sys, err := android.Boot(core.Stock(), android.LayoutOriginal, u)
	if err != nil {
		return err
	}
	ft := &trace.FaultTrace{}
	ft.Attach(sys.Kernel)

	// Keep the tail of the event stream in a bounded ring, subscribed to
	// the memory-management events only (cache fills/evictions would
	// drown everything else out).
	const ringCap = 16
	ring := obs.NewRing(ringCap)
	sys.Kernel.Subscribe(ring, obs.EvPageFault, obs.EvFork, obs.EvUnshare, obs.EvPTPShare, obs.EvPTPCopy,
		obs.EvTLBInsert, obs.EvTLBEvict, obs.EvTLBFlush, obs.EvTLBShootdown)

	prof := workload.BuildProfile(u, spec)
	a, _, err := sys.LaunchApp(prof, 1)
	if err != nil {
		return err
	}
	if _, err := a.Run(); err != nil {
		return err
	}
	smaps := a.Proc.MM.SmapsDump()
	pages := ft.ExecPages(a.Proc.PID)

	if asJSON {
		return emitJSON(appName, smaps, pages, ft, a.Proc.PID)
	}

	show := func(section string) bool { return what == "all" || what == section }

	if show("smaps") {
		fmt.Printf("# smaps for %s (pid %d): %d regions\n", appName, a.Proc.PID, len(smaps))
		for _, s := range smaps {
			fmt.Printf("%08x-%08x %s %6d/%6d resident  %-40s %s\n",
				s.Start, s.End, s.Prot, s.Resident, int(s.End-s.Start)/arch.PageSize,
				s.Name, s.Category)
		}
		fmt.Println()
	}

	if show("faults") {
		byKind := map[arch.AccessKind]int{}
		for _, e := range ft.Events {
			if e.PID == a.Proc.PID {
				byKind[e.Kind]++
			}
		}
		fmt.Printf("# page faults for %s: %d fetch, %d read, %d write; %d distinct exec pages\n\n",
			appName, byKind[arch.AccessFetch], byKind[arch.AccessRead],
			byKind[arch.AccessWrite], len(pages))
	}

	if show("footprint") {
		b := trace.FootprintBreakdown(smaps, pages)
		fmt.Printf("# instruction footprint of %s by category\n", appName)
		for _, c := range []vm.Category{vm.CatPrivateCode, vm.CatZygoteDynLib,
			vm.CatZygoteJavaLib, vm.CatZygoteBinary, vm.CatOtherDynLib, vm.CatOther} {
			fmt.Printf("%-42s %d\n", c, b[c])
		}
		fmt.Println()
	}

	if show("events") {
		fmt.Printf("# event stream tail for %s: %d events kept of %d seen (ring capacity %d)\n",
			appName, ring.Len(), ring.Seen(), ringCap)
		for _, ev := range ring.Events() {
			fmt.Printf("%-14s src=%-10s pid=%-3d addr=%08x value=%d\n",
				ev.Kind, ev.Source, ev.PID, ev.Addr, ev.Value)
		}
		fmt.Println()
	}

	if show("cdf") {
		zyg := trace.SharedCodePages(smaps, pages, true)
		sp := trace.Sparsity(zyg)
		fmt.Printf("# Figure 4 CDF for %s: untouched 4KB pages per 64KB chunk (CSV)\n", appName)
		fmt.Println("untouched,cumulative_fraction")
		for v := 0; v <= 15; v++ {
			fmt.Printf("%d,%.4f\n", v, sp.CDF.At(v))
		}
		fmt.Printf("# 4KB: %.1f MB, 64KB: %.1f MB, factor %.2fx\n",
			float64(sp.Memory4KB())/(1<<20), float64(sp.Memory64KB())/(1<<20), sp.WasteFactor())
	}
	return nil
}

// emitJSON writes the whole dump as one JSON document.
func emitJSON(appName string, smaps []vm.Smaps, pages []arch.VirtAddr, ft *trace.FaultTrace, pid int) error {
	d := jsonDump{App: appName, Faults: map[string]int{}, Footprint: map[string]int{}}
	for _, s := range smaps {
		d.Regions = append(d.Regions, jsonRegion{
			Start: uint32(s.Start), End: uint32(s.End), Prot: s.Prot.String(),
			Name: s.Name, Category: s.Category.String(), Resident: s.Resident,
		})
	}
	for _, e := range ft.Events {
		if e.PID == pid {
			d.Faults[e.Kind.String()]++
		}
	}
	d.ExecPages = len(pages)
	for c, n := range trace.FootprintBreakdown(smaps, pages) {
		d.Footprint[c.String()] = n
	}
	sp := trace.Sparsity(trace.SharedCodePages(smaps, pages, true))
	d.Sparsity = jsonSparsity{
		Pages4KB: sp.Pages4KB, Chunks64KB: sp.Chunks64KB, Waste: sp.WasteFactor(),
	}
	for v := 0; v <= 15; v++ {
		d.Sparsity.CDF = append(d.Sparsity.CDF, sp.CDF.At(v))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
