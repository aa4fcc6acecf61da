package arch

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	if PageSize != 4096 {
		t.Errorf("PageSize = %d, want 4096", PageSize)
	}
}

func TestAlignment(t *testing.T) {
	if got := PageBase(0x1234); got != 0x1000 {
		t.Errorf("PageBase(0x1234) = %#x, want 0x1000", got)
	}
}

func TestAlignmentProperties(t *testing.T) {
	// PageBase is idempotent, never exceeds its argument, and preserves
	// the virtual page number.
	prop := func(raw uint32) bool {
		va := VirtAddr(raw)
		b := PageBase(va)
		if b > va || PageBase(b) != b {
			return false
		}
		return VPN(b) == VPN(va)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDACR(t *testing.T) {
	const d = 2
	var r DACR
	if r.Access(d) != DomainNoAccess {
		t.Fatalf("zero DACR must deny all domains")
	}
	r = r.WithAccess(d, DomainClient)
	if r.Access(d) != DomainClient {
		t.Errorf("Access(%d) = %v, want client", d, r.Access(d))
	}
	if r.Access(0) != DomainNoAccess {
		t.Errorf("setting one domain must not disturb others")
	}
	r = r.WithAccess(d, DomainManager)
	if r.Access(d) != DomainManager {
		t.Errorf("Access(%d) = %v, want manager", d, r.Access(d))
	}
	r = r.WithAccess(d, DomainNoAccess)
	if r.Access(d) != DomainNoAccess {
		t.Errorf("revoking access failed")
	}
}

func TestDACRProperties(t *testing.T) {
	// WithAccess sets exactly the requested domain and preserves the rest.
	const numDomains = 16
	prop := func(raw uint32, d uint8, a uint8) bool {
		d %= numDomains
		acc := DomainAccess(a % 4)
		if acc == 2 { // reserved encoding, unused
			acc = DomainClient
		}
		r := DACR(raw).WithAccess(d, acc)
		if r.Access(d) != acc {
			return false
		}
		for i := uint8(0); i < numDomains; i++ {
			if i != d && r.Access(i) != DACR(raw).Access(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if FaultDomain.String() != "domain fault" {
		t.Errorf("FaultDomain.String() = %q", FaultDomain.String())
	}
	if AccessFetch.String() != "fetch" {
		t.Errorf("AccessFetch.String() = %q", AccessFetch.String())
	}
	for f := FaultNone; f <= FaultDomain+1; f++ {
		if f.String() == "" {
			t.Errorf("empty string for fault %d", f)
		}
	}
	for k := AccessFetch; k <= AccessWrite+1; k++ {
		if k.String() == "" {
			t.Errorf("empty string for access kind %d", k)
		}
	}
}

func TestFrameAddr(t *testing.T) {
	if got := FrameAddr(3); got != 3*PageSize {
		t.Errorf("FrameAddr(3) = %#x, want %#x", got, 3*PageSize)
	}
}

func TestVPN(t *testing.T) {
	if got := VPN(0x12345678); got != 0x12345 {
		t.Errorf("VPN = %#x, want 0x12345", got)
	}
}

func TestRegistryMechanics(t *testing.T) {
	if _, ok := Lookup("no-such-arch"); ok {
		t.Error("Lookup of unregistered name must fail")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
}
