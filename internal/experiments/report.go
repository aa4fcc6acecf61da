// Structured output for cmd/experiments -json.
//
// Schema ("sat-experiments/v1"):
//
//	{
//	  "schema": "sat-experiments/v1",
//	  "params": {"launch_runs": N, "app_runs": N, "binder_iters": N},
//	  "experiments": [
//	    {"name": "<registry name>", "metrics": {"<key>": <float64>, ...}},
//	    ...
//	  ]
//	}
//
// Experiments appear in registry (presentation) order; metric keys are
// sorted by encoding/json's map ordering. The document is deterministic:
// the same parameters produce byte-identical output regardless of the
// sweep worker count, inheriting the sweep engine's guarantee. An
// experiment's metrics are the keyed values of its result Table, the
// value its text report renders from too; Table's doc comment gives the
// key conventions. Additions of new keys or new experiments are
// backward-compatible, renames or removals bump the schema version.

package experiments

import (
	"encoding/json"
	"fmt"
)

// SchemaID identifies the JSON document layout emitted by RunJSON.
const SchemaID = "sat-experiments/v1"

// JSONParams echoes the sweep parameters into the report.
type JSONParams struct {
	LaunchRuns  int `json:"launch_runs"`
	AppRuns     int `json:"app_runs"`
	BinderIters int `json:"binder_iters"`
}

// JSONExperiment is one experiment's flattened result.
type JSONExperiment struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// JSONReport is the top-level -json document.
type JSONReport struct {
	Schema      string           `json:"schema"`
	Params      JSONParams       `json:"params"`
	Experiments []JSONExperiment `json:"experiments"`
}

// RunJSON runs the selected experiments (all when selected is empty) on
// the session and renders the structured report, newline-terminated.
func RunJSON(s *Session, selected map[string]bool) ([]byte, error) {
	return runJSON(s, selected, nil)
}

// runJSON is RunJSON that also hands every result to seen, when non-nil,
// so one pass over the registry yields the text rendering as well.
func runJSON(s *Session, selected map[string]bool, seen func(Experiment, *Table)) ([]byte, error) {
	rep := JSONReport{
		Schema: SchemaID,
		Params: JSONParams{
			LaunchRuns:  s.Params.LaunchRuns,
			AppRuns:     s.Params.AppRuns,
			BinderIters: s.Params.BinderIters,
		},
	}
	for _, e := range Registry() {
		if len(selected) > 0 && !selected[e.Name] {
			continue
		}
		t, err := e.Run(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		if seen != nil {
			seen(e, t)
		}
		rep.Experiments = append(rep.Experiments, JSONExperiment{Name: e.Name, Metrics: t.Metrics()})
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
