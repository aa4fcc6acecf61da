// Tests for the sweep error contract at the experiment level: a cached
// sweep failure must surface identically in every figure derived from
// it. Worker-count byte identity is checked in golden_test.go.

package experiments

import (
	"strings"
	"testing"
)

// TestSweepErrorConsistency checks that a failing cached sweep reports
// the same, named error from every figure that depends on it — the
// sync.Once must cache an error that says which sweep failed, not just
// the bare cause.
func TestSweepErrorConsistency(t *testing.T) {
	s := New(Params{}) // all sizes zero: every sweep fails validation

	expectSame := func(name, wantSubstr string, runs ...func() error) {
		t.Helper()
		var msgs []string
		for _, run := range runs {
			err := run()
			if err == nil {
				t.Fatalf("%s: expected an error from the invalid session", name)
			}
			if !strings.Contains(err.Error(), wantSubstr) {
				t.Errorf("%s: error %q does not name the failing sweep (%q)", name, err, wantSubstr)
			}
			msgs = append(msgs, err.Error())
		}
		for _, m := range msgs[1:] {
			if m != msgs[0] {
				t.Errorf("%s: dependent figures report different errors:\n  %q\n  %q", name, msgs[0], m)
			}
		}
	}

	expectSame("launch sweep", "launch sweep (Figures 7-9)",
		func() error { _, err := s.Figure7(); return err },
		func() error { _, err := s.Figure8(); return err },
		func() error { _, err := s.Figure9(); return err },
	)
	expectSame("steady-state sweep", "steady-state sweep (Figures 10-12)",
		func() error { _, err := s.Figure10(); return err },
		func() error { _, err := s.Figure11(); return err },
		func() error { _, err := s.Figure12(); return err },
	)
	expectSame("motivation sweep", "motivation sweep (Tables 1-2, Figures 2-4)",
		func() error { _, err := s.Table1(); return err },
		func() error { _, err := s.Figure2(); return err },
		func() error { _, err := s.Table2(); return err },
	)
	if _, err := s.Figure13(); err == nil || !strings.Contains(err.Error(), "figure 13") {
		t.Errorf("Figure13 error = %v, want a figure 13 validation error", err)
	}
}

// TestParamsValidate pins the validation rules the commands rely on.
func TestParamsValidate(t *testing.T) {
	if err := Quick().Validate(); err != nil {
		t.Errorf("Quick params should validate: %v", err)
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("Default params should validate: %v", err)
	}
	bad := []Params{
		{LaunchRuns: 0, AppRuns: 1, BinderIters: 1},
		{LaunchRuns: 1, AppRuns: 0, BinderIters: 1},
		{LaunchRuns: 1, AppRuns: 1, BinderIters: 0},
		{LaunchRuns: -3, AppRuns: 1, BinderIters: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
}
