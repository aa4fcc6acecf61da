// The Android IPC experiment of Section 4.2.4 (Figure 13): instruction
// main-TLB stall cycles of the Binder client and server under three
// kernels, with ASIDs disabled (full TLB flush on context switch) and
// enabled.

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Figure13Result is the IPC TLB study.
type Figure13Result struct {
	Rows []Figure13Row
	// ClientImprovementPct / ServerImprovementPct are the reductions of
	// Shared PTP & TLB versus stock with ASIDs enabled (paper: up to
	// 36% and 19%).
	ClientImprovementPct float64
	ServerImprovementPct float64
}

// Figure13Row is one configuration's stalls, normalized to the stock
// kernel in the same ASID mode.
type Figure13Row struct {
	ASID   bool
	Kernel string
	// ClientStalls / ServerStalls are raw instruction main-TLB stall
	// cycle counts.
	ClientStalls uint64
	ServerStalls uint64
	// ClientNormPct / ServerNormPct are normalized to the stock kernel
	// of the same ASID mode (the paper normalizes to stock overall).
	ClientNormPct float64
	ServerNormPct float64
}

// Figure13 runs the Binder microbenchmark under {ASID off, on} x {stock,
// Shared PTP, Shared PTP & TLB}: six independent scenarios, each booting
// its own system, fanned out over the worker pool. Normalization to the
// stock kernel of each ASID mode happens after the merge, on the
// canonically ordered rows.
func (s *Session) Figure13() (*Figure13Result, error) {
	if err := s.Params.Validate(); err != nil {
		return nil, fmt.Errorf("figure 13: %w", err)
	}
	kernels := []core.Config{core.Stock(), core.SharedPTP(), core.SharedPTPTLB()}
	var scenarios []sweep.Scenario[android.BinderResult]
	for _, useASID := range []bool{false, true} {
		for _, cfg := range kernels {
			useASID, cfg := useASID, cfg
			scenarios = append(scenarios, sweep.Scenario[android.BinderResult]{
				Name: fmt.Sprintf("figure13/%s/asid=%v", cfg.Name(), useASID),
				Run: func(*rand.Rand) (android.BinderResult, error) {
					sys, err := s.Boot(cfg, android.LayoutOriginal)
					if err != nil {
						return android.BinderResult{}, err
					}
					res, err := sys.RunBinder(s.Params.BinderIters, useASID)
					if err != nil {
						return android.BinderResult{}, fmt.Errorf("experiments: figure 13 %s asid=%v: %w",
							cfg.Name(), useASID, err)
					}
					return res, nil
				},
			})
		}
	}
	results, err := sweep.Run(s.workers(), scenarios)
	if err != nil {
		return nil, err
	}
	r := &Figure13Result{}
	for ai, useASID := range []bool{false, true} {
		base := results[ai*len(kernels)] // stock kernel of this ASID mode
		for ki, cfg := range kernels {
			res := results[ai*len(kernels)+ki]
			r.Rows = append(r.Rows, Figure13Row{
				ASID:          useASID,
				Kernel:        cfg.Name(),
				ClientStalls:  res.Client.ITLBStalls,
				ServerStalls:  res.Server.ITLBStalls,
				ClientNormPct: stats.Normalize(float64(base.Client.ITLBStalls), float64(res.Client.ITLBStalls)),
				ServerNormPct: stats.Normalize(float64(base.Server.ITLBStalls), float64(res.Server.ITLBStalls)),
			})
		}
	}
	for _, row := range r.Rows {
		if row.ASID && row.Kernel == "Shared PTP & TLB" {
			r.ClientImprovementPct = 100 - row.ClientNormPct
			r.ServerImprovementPct = 100 - row.ServerNormPct
		}
	}
	return r, nil
}

// Table renders the figure.
func (r *Figure13Result) Table() *Table {
	t := newTable("Figure 13: Binder IPC instruction main-TLB stall cycles",
		"ASID", "Kernel", "Client stalls", "Server stalls", "Client (% of stock)", "Server (% of stock)")
	for _, row := range r.Rows {
		label, mode := "disabled", "asid_off"
		if row.ASID {
			label, mode = "enabled", "asid_on"
		}
		key := mode + "." + row.Kernel
		t.row(text(label), text(row.Kernel),
			countCell(row.ClientStalls, "client_stalls."+key), countCell(row.ServerStalls, "server_stalls."+key),
			pctCell(row.ClientNormPct, "client_norm_pct."+key), pctCell(row.ServerNormPct, "server_norm_pct."+key))
	}
	client := Val{V: r.ClientImprovementPct, Key: "client_improvement_pct"}.withPaper(36)
	server := Val{V: r.ServerImprovementPct, Key: "server_improvement_pct"}.withPaper(19)
	t.note("TLB sharing improvement with ASIDs: client %.1f%%, server %.1f%% (paper: up to %g%% / %g%%)",
		client, server, paperOf(client), paperOf(server))
	return t
}
