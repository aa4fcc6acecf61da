package android

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	_ "repro/internal/arch/sv39" // the sv39 case boots the Sv39 MMU backend
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// eventDigest folds every event it sees, in publication order, into a
// SHA-256 over all of the event's fields, and counts them.
type eventDigest struct {
	h   hash.Hash
	n   uint64
	buf []byte
}

func newEventDigest() *eventDigest { return &eventDigest{h: sha256.New()} }

// HandleEvent implements obs.Observer.
func (d *eventDigest) HandleEvent(ev obs.Event) {
	b := d.buf[:0]
	b = append(b, byte(ev.Kind), ev.Access)
	b = binary.LittleEndian.AppendUint64(b, uint64(ev.PID))
	b = binary.LittleEndian.AppendUint64(b, ev.Addr)
	b = binary.LittleEndian.AppendUint64(b, ev.Value)
	b = append(b, ev.Source...)
	b = append(b, 0)
	d.h.Write(b)
	d.buf = b
	d.n++
}

func (d *eventDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// TestEventStreamPinned pins the complete event stream of one real app —
// every kind, every field, in order — across a HelloWorld launch and run
// with an observer subscribed to every event kind. Any change to the
// execution engines that reorders, drops, or invents an event (a TLB
// insert, a cache fill or evict, a page fault) changes the digest. The
// expected values were recorded from the in-order scalar engines before
// observed runs moved onto the fused paths.
func TestEventStreamPinned(t *testing.T) {
	cases := []struct {
		name   string
		cfg    core.Config
		arch   string
		events uint64
		digest string
	}{
		{"armv7/shared-ptp-tlb", core.SharedPTPTLB(), "armv7", 1012211, "bc6f5cdd3b9db9f83051d93d643a9e83ef8212d5104d75b6844223bc98723c1e"},
		{"sv39/stock", core.Stock(), "sv39", 1085872, "1790a0167069745da918deca71da63dba2f051ba75fdc396ba1c129ac8da7baa"},
	}
	prof := workload.BuildProfile(testUniverse, workload.HelloWorldSpec())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := BootOpts(tc.cfg, LayoutOriginal, testUniverse, Options{Arch: tc.arch})
			if err != nil {
				t.Fatal(err)
			}
			d := newEventDigest()
			defer sys.Kernel.Subscribe(d)()
			app, _, err := sys.LaunchApp(prof, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := app.Run(); err != nil {
				t.Fatal(err)
			}
			if got := d.sum(); d.n != tc.events || got != tc.digest {
				t.Errorf("event stream: %d events, digest %s; want %d events, digest %s",
					d.n, got, tc.events, tc.digest)
			}
		})
	}
}
