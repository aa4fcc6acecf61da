package framework

import (
	"fmt"
	"go/types"
)

// Driver runs analyzers over units with cross-package fact propagation:
// before a unit is analyzed, the fact-exporting analyzers are run over
// every module-local dependency (in dependency order, each package
// once), so the facts the unit imports are already in the store.
//
// The store lives in memory for the driver's whole run. Facts stay keyed
// by (package path, object key) rather than by types.Object, because a
// package's test unit and the test-free unit its importers see are
// type-checked separately.
type Driver struct {
	Loader    *Loader
	Analyzers []*Analyzer

	facts *FactStore
	done  map[string]bool // package path -> facts computed
}

// NewDriver creates a driver running analyzers with loader.
func NewDriver(loader *Loader, analyzers []*Analyzer) *Driver {
	return &Driver{
		Loader:    loader,
		Analyzers: analyzers,
		facts:     NewFactStore(),
		done:      map[string]bool{},
	}
}

// factAnalyzers is the subset of the run set that declares fact types —
// the only analyzers worth running over dependencies.
func (d *Driver) factAnalyzers() []*Analyzer {
	var out []*Analyzer
	for _, a := range d.Analyzers {
		if len(a.FactTypes) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// ensureFacts computes (once) the facts of the module-local package pkg
// and, transitively first, of its module-local dependencies.
func (d *Driver) ensureFacts(pkg *types.Package) error {
	path := pkg.Path()
	if d.done[path] || !d.Loader.Local(path) {
		return nil
	}
	d.done[path] = true // set first: import graphs are acyclic, but be safe
	for _, imp := range pkg.Imports() {
		if err := d.ensureFacts(imp); err != nil {
			return err
		}
	}
	fas := d.factAnalyzers()
	if len(fas) == 0 {
		return nil
	}
	unit, err := d.Loader.PureUnit(path)
	if err != nil {
		return fmt.Errorf("loading %q for facts: %v", path, err)
	}
	if unit == nil {
		return nil
	}
	// Diagnostics of dependency passes are discarded; each package's
	// findings are reported when it is analyzed as a unit in its own
	// right.
	_, err = RunAnalyzers(unit, fas, d.facts)
	return err
}

// Run analyzes one unit: dependency facts are computed first, then
// every analyzer runs with the accumulated store. The returned
// diagnostics include Ignored-marked suppressed findings (see
// RunAnalyzers).
func (d *Driver) Run(unit *Unit) ([]Diagnostic, error) {
	for _, imp := range unit.Pkg.Imports() {
		if err := d.ensureFacts(imp); err != nil {
			return nil, err
		}
	}
	return RunAnalyzers(unit, d.Analyzers, d.facts)
}

// Facts exposes the accumulated store, for analysistest's fact
// assertions.
func (d *Driver) Facts() *FactStore { return d.facts }
