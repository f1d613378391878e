package tiers

import (
	"testing"
	"time"
)

func epoch() time.Time {
	return time.Date(2000, 4, 1, 0, 0, 0, 0, time.UTC)
}

func TestPipelineLatencies(t *testing.T) {
	sim := NewSim(DefaultDelays(), epoch())
	const nights = 30
	const nightlyBytes = 20e9 // "about 20 GB will be arriving daily"
	for n := 0; n < nights; n++ {
		sim.Observe(epoch().Add(time.Duration(n)*Day), int64(nightlyBytes))
	}
	sim.Drain()

	for _, c := range sim.Chunks() {
		oa := c.ArrivedAt[Operational].Sub(c.Observed)
		if oa != Day {
			t.Fatalf("chunk %d reached OA after %v, want 1 day", c.ID, oa)
		}
		msa := c.ArrivedAt[MasterScience].Sub(c.Observed)
		if msa != 21*Day {
			t.Fatalf("chunk %d reached MSA after %v, want 21 days", c.ID, msa)
		}
		la := c.ArrivedAt[Local].Sub(c.Observed)
		if la != 51*Day {
			t.Fatalf("chunk %d reached LA after %v, want 51 days", c.ID, la)
		}
		pub := c.ArrivedAt[Public].Sub(c.Observed)
		if pub != 561*Day {
			t.Fatalf("chunk %d reached public after %v, want 561 days", c.ID, pub)
		}
	}
	mean, min, max, n := sim.TierLatency(Public)
	if n != nights || mean != 561*Day || min != max {
		t.Errorf("public latency stats: mean=%v min=%v max=%v n=%d", mean, min, max, n)
	}
}

func TestHoldingsOverTime(t *testing.T) {
	sim := NewSim(DefaultDelays(), epoch())
	const nights = 100
	for n := 0; n < nights; n++ {
		sim.Observe(epoch().Add(time.Duration(n)*Day), 20e9)
	}
	// After 60 days: every observed chunk is at the telescope tier;
	// chunks observed ≥ 21 days ago are in the MSA; none public yet.
	sim.RunUntil(epoch().Add(60 * Day))
	tele, _ := sim.Holdings(Telescope)
	if tele != 61 { // nights 0..60 observed by now
		t.Errorf("telescope holdings = %d, want 61", tele)
	}
	msa, msaBytes := sim.Holdings(MasterScience)
	if msa != 40 { // nights 0..39 have aged ≥ 21 days
		t.Errorf("MSA holdings = %d, want 40", msa)
	}
	if msaBytes != int64(40*20e9) {
		t.Errorf("MSA bytes = %d", msaBytes)
	}
	if pub, _ := sim.Holdings(Public); pub != 0 {
		t.Errorf("public holdings = %d before verification period", pub)
	}
	// After two years everything is public.
	sim.Drain()
	if pub, _ := sim.Holdings(Public); pub != nights {
		t.Errorf("public holdings after drain = %d, want %d", pub, nights)
	}
}

func TestTierOrderingInvariant(t *testing.T) {
	sim := NewSim(DefaultDelays(), epoch())
	for n := 0; n < 20; n++ {
		sim.Observe(epoch().Add(time.Duration(n*3)*Day), 1e9)
	}
	sim.Drain()
	for _, c := range sim.Chunks() {
		for tier := Operational; tier <= Public; tier++ {
			if c.ArrivedAt[tier].Before(c.ArrivedAt[tier-1]) {
				t.Fatalf("chunk %d reached %v before %v", c.ID, tier, tier-1)
			}
		}
	}
}
