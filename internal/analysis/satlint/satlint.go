// Package satlint assembles the project's analyzer suite: the five
// invariant checks cmd/satlint runs as a multichecker. The set is
// defined here, away from the command, so tests can assert registration
// and future analyzers have one place to plug in.
package satlint

import (
	"repro/internal/analysis/captureimmut"
	"repro/internal/analysis/detflow"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/nondet"
	"repro/internal/analysis/obsguard"
)

// Analyzers returns the full suite in stable (alphabetical) order.
func Analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		captureimmut.Analyzer,
		detflow.Analyzer,
		maporder.Analyzer,
		nondet.Analyzer,
		obsguard.Analyzer,
	}
}
