// The experiment registry: every table, figure, ablation, and study the
// harness can regenerate, keyed by the names cmd/experiments accepts for
// -only. Keeping the list here lets the command and the tests share one
// source of truth for name validation and all-experiments sweeps.

package experiments

// Experiment is one runnable table or figure.
type Experiment struct {
	// Name is the identifier accepted by cmd/experiments -only.
	Name string
	// Run regenerates the result on the given session.
	Run func(*Session) (*Table, error)
}

// Registry lists every experiment in presentation order (the order the
// paper's evaluation presents them, followed by the ablations and
// future-direction studies).
func Registry() []Experiment {
	return []Experiment{
		{"table1", run((*Session).Table1)},
		{"figure2", run((*Session).Figure2)},
		{"figure3", run((*Session).Figure3)},
		{"table2", run((*Session).Table2)},
		{"figure4", run((*Session).Figure4)},
		{"table3", run((*Session).Table3)},
		{"table4", run((*Session).Table4)},
		{"figure7", run((*Session).Figure7)},
		{"figure8", run((*Session).Figure8)},
		{"figure9", run((*Session).Figure9)},
		{"figure10", run((*Session).Figure10)},
		{"figure11", run((*Session).Figure11)},
		{"figure12", run((*Session).Figure12)},
		{"ptecopies", run((*Session).PTECopies)},
		{"figure13", run((*Session).Figure13)},
		{"ablation-stack", run((*Session).StackSharingAblation)},
		{"ablation-refcopy", run((*Session).CopyReferencedAblation)},
		{"ablation-l1wp", run((*Session).L1WriteProtectAblation)},
		{"ablation-largepages", run((*Session).LargePageStudy)},
		{"future-domainmatch", run((*Session).DomainMatchStudy)},
		{"future-grouping", run((*Session).SchedulerGrouping)},
		{"scalability", run((*Session).Scalability)},
		{"cache-pollution", run((*Session).CachePollution)},
		{"smp", run((*Session).SMP)},
		{"chrome-family", run((*Session).ChromeFamily)},
	}
}

// run adapts a session method to Experiment.Run.
func run[R interface{ Table() *Table }](method func(*Session) (R, error)) func(*Session) (*Table, error) {
	return func(s *Session) (*Table, error) {
		r, err := method(s)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}
}

// Names returns the registered experiment names in presentation order.
func Names() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, e := range reg {
		names[i] = e.Name
	}
	return names
}
