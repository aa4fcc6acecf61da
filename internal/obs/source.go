package obs

import (
	"fmt"
	"sort"
)

// Source is the uniform metrics surface every instrumented component
// implements: the kernel, each TLB, each cache, the CPU contexts, the
// page tables, and the per-process VM layer all expose their counters
// through this one interface, so campaigns and command-line tools can
// collect, render, and reset metrics without knowing component types.
type Source interface {
	// Name identifies the source. Within one Registry, names are unique.
	Name() string
	// Snapshot returns the current counter values keyed by metric name.
	// The map is freshly allocated on every call: callers may mutate or
	// retain it without affecting the source or later snapshots.
	// core's TestSourceSnapshotContract checks this on every source of a
	// running machine.
	Snapshot() map[string]uint64
	// Reset zeroes all counters.
	Reset()
}

// prefixed decorates a Source with a name prefix so several instances of
// the same component type (for example one mainTLB per CPU) can coexist
// in one Registry.
type prefixed struct {
	prefix string
	src    Source
}

// Prefix wraps s so that its name becomes prefix + s.Name(). Snapshot
// and Reset delegate unchanged.
func Prefix(prefix string, s Source) Source { return prefixed{prefix, s} }

func (p prefixed) Name() string                { return p.prefix + p.src.Name() }
func (p prefixed) Snapshot() map[string]uint64 { return p.src.Snapshot() }
func (p prefixed) Reset()                      { p.src.Reset() }

// Registry is an ordered collection of Sources with unique names. It is
// the collection point for a whole simulated system's metrics: register
// every component once, then Snapshot the lot for rendering or JSON
// output.
type Registry struct {
	order []Source
	index map[string]int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// Register adds sources to the registry, rejecting duplicate names: a
// duplicate almost always means two components were wired with the same
// identity and their metrics would silently shadow each other.
func (r *Registry) Register(sources ...Source) error {
	for _, s := range sources {
		name := s.Name()
		if _, dup := r.index[name]; dup {
			return fmt.Errorf("obs: duplicate source name %q", name)
		}
		r.index[name] = len(r.order)
		r.order = append(r.order, s)
	}
	return nil
}

// MustRegister is Register that panics on duplicate names, for wiring
// done at construction time where a duplicate is a programming error.
func (r *Registry) MustRegister(sources ...Source) {
	if err := r.Register(sources...); err != nil {
		panic(err)
	}
}

// Names returns the registered source names in sorted order.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.order))
	for _, s := range r.order {
		out = append(out, s.Name())
	}
	sort.Strings(out)
	return out
}

// Lookup returns the source registered under name, or nil.
func (r *Registry) Lookup(name string) Source {
	i, ok := r.index[name]
	if !ok {
		return nil
	}
	return r.order[i]
}

// Snapshot collects every source's snapshot, keyed by source name. The
// outer and inner maps are freshly allocated.
func (r *Registry) Snapshot() map[string]map[string]uint64 {
	out := make(map[string]map[string]uint64, len(r.order))
	for _, s := range r.order {
		out[s.Name()] = s.Snapshot()
	}
	return out
}

// ResetAll resets every registered source, in registration order.
func (r *Registry) ResetAll() {
	for _, s := range r.order {
		s.Reset()
	}
}
