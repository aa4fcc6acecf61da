package obs

import (
	"reflect"
	"testing"
)

// TestDispatchOrderDeterminism pins the bus's core contract: observers
// see events in subscription order, regardless of which kinds they
// subscribed to, and repeated publishes preserve that order.
func TestDispatchOrderDeterminism(t *testing.T) {
	b := NewBus()
	var got []string
	sub := func(tag string, kinds ...Kind) {
		b.Subscribe(ObserverFunc(func(ev Event) {
			got = append(got, tag+":"+ev.Kind.String())
		}), kinds...)
	}
	sub("all")
	sub("faults", EvPageFault)
	sub("tlb", EvTLBInsert, EvTLBFlush)

	for i := 0; i < 2; i++ {
		b.Publish(Event{Kind: EvPageFault})
		b.Publish(Event{Kind: EvTLBInsert})
		b.Publish(Event{Kind: EvFork})
	}
	want := []string{
		"all:page-fault", "faults:page-fault", "all:tlb-insert", "tlb:tlb-insert", "all:fork",
		"all:page-fault", "faults:page-fault", "all:tlb-insert", "tlb:tlb-insert", "all:fork",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch order:\n got %v\nwant %v", got, want)
	}
}

// TestSubscribeCancel checks that the cancel func removes a subscription
// from every kind it was registered on, and that other subscriptions are
// untouched.
func TestSubscribeCancel(t *testing.T) {
	b := NewBus()
	var a, c int
	cancelA := b.Subscribe(ObserverFunc(func(Event) { a++ }))
	b.Subscribe(ObserverFunc(func(Event) { c++ }), EvFork)

	b.Publish(Event{Kind: EvFork})
	cancelA()
	cancelA() // idempotent
	b.Publish(Event{Kind: EvFork})
	b.Publish(Event{Kind: EvPageFault})

	if a != 1 {
		t.Errorf("cancelled observer saw %d events, want 1", a)
	}
	if c != 2 {
		t.Errorf("remaining observer saw %d events, want 2", c)
	}
	if b.Subscribers(EvPageFault) != 0 {
		t.Errorf("Subscribers(EvPageFault) = %d after cancel, want 0", b.Subscribers(EvPageFault))
	}
}

// TestNilBusSafe: components hold an optional *Bus and must be able to
// publish and test unconditionally.
func TestNilBusSafe(t *testing.T) {
	var b *Bus
	if b.Wants(EvPageFault) {
		t.Error("nil bus Wants = true")
	}
	b.Publish(Event{Kind: EvPageFault}) // must not panic
	if b.Subscribers(EvFork) != 0 {
		t.Error("nil bus has subscribers")
	}
}

// TestWants checks the hot-path guard tracks subscriptions per kind.
func TestWants(t *testing.T) {
	b := NewBus()
	if b.Wants(EvTLBInsert) {
		t.Error("empty bus Wants(EvTLBInsert) = true")
	}
	cancel := b.Subscribe(ObserverFunc(func(Event) {}), EvTLBInsert)
	if !b.Wants(EvTLBInsert) {
		t.Error("Wants(EvTLBInsert) = false after subscribe")
	}
	if b.Wants(EvCacheFill) {
		t.Error("Wants(EvCacheFill) = true without subscribers")
	}
	cancel()
	if b.Wants(EvTLBInsert) {
		t.Error("Wants(EvTLBInsert) = true after cancel")
	}
}

// TestRingOverflow checks the overwrite-oldest policy and the seen /
// dropped accounting.
func TestRingOverflow(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.HandleEvent(Event{Kind: EvTLBInsert, Value: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Len = %d, want 3", len(evs))
	}
	for i, want := range []uint64{3, 4, 5} {
		if evs[i].Value != want {
			t.Errorf("event %d Value = %d, want %d (oldest-first order)", i, evs[i].Value, want)
		}
	}
	if r.Seen() != 5 {
		t.Errorf("Seen = %d, want 5", r.Seen())
	}
	if r.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", r.Dropped())
	}

	r.Reset()
	if r.Len() != 0 || r.Seen() != 0 || r.Dropped() != 0 {
		t.Errorf("after Reset: Len=%d Seen=%d Dropped=%d, want all zero", r.Len(), r.Seen(), r.Dropped())
	}
	r.HandleEvent(Event{Kind: EvFork})
	if r.Len() != 1 {
		t.Errorf("ring unusable after Reset: Len = %d, want 1", r.Len())
	}
}

// TestRingFilter checks that a ring subscribed to one kind never sees
// the others: they are neither retained nor counted.
func TestRingFilter(t *testing.T) {
	b := NewBus()
	r := NewRing(8)
	b.Subscribe(r, EvPageFault)
	b.Publish(Event{Kind: EvPageFault, Addr: 0x1000})
	b.Publish(Event{Kind: EvTLBInsert})
	b.Publish(Event{Kind: EvPageFault, Addr: 0x2000})
	if r.Len() != 2 || r.Seen() != 2 {
		t.Fatalf("Len=%d Seen=%d, want 2 and 2 (unsubscribed kinds not counted)", r.Len(), r.Seen())
	}
	for _, ev := range r.Events() {
		if ev.Kind != EvPageFault {
			t.Errorf("retained event of kind %v outside the subscription", ev.Kind)
		}
	}
}

// TestRingOnBus exercises the intended composition: a ring subscribed to
// a bus captures exactly the kinds it subscribed to.
func TestRingOnBus(t *testing.T) {
	b := NewBus()
	r := NewRing(4)
	b.Subscribe(r, EvUnshare, EvPTPCopy)
	b.Publish(Event{Kind: EvUnshare, PID: 7})
	b.Publish(Event{Kind: EvFork, PID: 8})
	b.Publish(Event{Kind: EvPTPCopy, PID: 7})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != EvUnshare || evs[1].Kind != EvPTPCopy {
		t.Fatalf("captured %v, want [unshare ptp-copy]", evs)
	}
}

// fakeSource is a minimal Source for registry tests.
type fakeSource struct {
	name string
	vals map[string]uint64
}

func (f *fakeSource) Name() string { return f.name }
func (f *fakeSource) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(f.vals))
	for k, v := range f.vals {
		out[k] = v
	}
	return out
}
func (f *fakeSource) Reset() {
	for k := range f.vals {
		f.vals[k] = 0
	}
}

// TestRegistry covers registration, duplicate rejection, lookup, sorted
// names, and ResetAll.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	a := &fakeSource{name: "b-src", vals: map[string]uint64{"x": 1}}
	b := &fakeSource{name: "a-src", vals: map[string]uint64{"y": 2}}
	if err := r.Register(a, b); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r.Register(&fakeSource{name: "a-src"}); err == nil {
		t.Fatal("Register accepted a duplicate name")
	}
	if got, want := r.Names(), []string{"a-src", "b-src"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
	if r.Lookup("a-src") != Source(b) {
		t.Error("Lookup returned the wrong source")
	}
	if r.Lookup("missing") != nil {
		t.Error("Lookup of a missing name is non-nil")
	}
	snap := r.Snapshot()
	if snap["b-src"]["x"] != 1 || snap["a-src"]["y"] != 2 {
		t.Errorf("Snapshot = %v", snap)
	}
	r.ResetAll()
	if a.vals["x"] != 0 || b.vals["y"] != 0 {
		t.Error("ResetAll did not reset all sources")
	}
}

// TestPrefix checks the wrapper renames without altering data flow.
func TestPrefix(t *testing.T) {
	s := &fakeSource{name: "mainTLB", vals: map[string]uint64{"hits": 9}}
	p := Prefix("cpu1.", s)
	if p.Name() != "cpu1.mainTLB" {
		t.Errorf("Name = %q, want cpu1.mainTLB", p.Name())
	}
	if p.Snapshot()["hits"] != 9 {
		t.Error("Snapshot does not delegate")
	}
	p.Reset()
	if s.vals["hits"] != 0 {
		t.Error("Reset does not delegate")
	}
}

// TestKindStrings keeps every kind named (the JSON schema and DESIGN.md
// taxonomy rely on stable, non-"unknown" names).
func TestKindStrings(t *testing.T) {
	seen := make(map[string]bool)
	for _, k := range Kinds() {
		s := k.String()
		if s == "unknown" || s == "" {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
}
