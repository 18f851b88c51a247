package gcn

import (
	"testing"
	"time"

	"slpdas/internal/des"
	"slpdas/internal/topo"
)

// expireWhileDead arms every timer on a crashed process and runs the
// simulator, so the timers expire without the process consuming them: a
// dead process is not stepped. It leaves the process dead.
func expireWhileDead(t *testing.T, sim *des.Simulator, p *Process, timers ...*Timer) {
	t.Helper()
	p.Fail()
	for _, tm := range timers {
		tm.Set(time.Second)
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// checkExpiredCount compares the process's expired-timer count with the
// timers' own flags.
func checkExpiredCount(t *testing.T, when string, p *Process, want int, timers ...*Timer) {
	t.Helper()
	flags := 0
	for _, tm := range timers {
		if tm.Expired() {
			flags++
		}
	}
	if p.expired != flags || flags != want {
		t.Errorf("%s: expired count %d, %d timers expired, want %d", when, p.expired, flags, want)
	}
}

// TestPollActionsFireInDeclarationOrder: with two expired timers and an
// enabled guard declared between them, one stimulus runs all three in
// declaration order — timeouts and guards share one priority list.
func TestPollActionsFireInDeclarationOrder(t *testing.T) {
	sim := des.New()
	e := NewEngine(sim, 0)
	p := e.NewProcess(1)
	var order []string
	enabled := false
	a := p.NewTimer("a", func() { order = append(order, "a") })
	p.AddGuard("g", func() bool { return enabled }, func() { order = append(order, "g"); enabled = false })
	b := p.NewTimer("b", func() { order = append(order, "b") })

	expireWhileDead(t, sim, p, b, a)
	p.Revive()
	enabled = true
	e.Kickstart(p)
	if len(order) != 3 || order[0] != "a" || order[1] != "g" || order[2] != "b" {
		t.Errorf("order = %v, want [a g b]", order)
	}
	checkExpiredCount(t, "after quiescence", p, 0, a, b)
}

// TestExpiredCountExact: the per-process count of expired, unconsumed
// timers tracks the timers' flags through every transition that touches
// them.
func TestExpiredCountExact(t *testing.T) {
	sim := des.New()
	e := NewEngine(sim, 0)
	p := e.NewProcess(1)
	fired := 0
	a := p.NewTimer("a", func() { fired++ })
	b := p.NewTimer("b", func() { fired++ })

	expireWhileDead(t, sim, p, a, b)
	checkExpiredCount(t, "both expired", p, 2, a, b)
	a.Set(time.Second)
	checkExpiredCount(t, "Set of an expired timer", p, 1, a, b)
	b.Stop()
	checkExpiredCount(t, "Stop of an expired timer", p, 0, a, b)
	b.Stop()
	checkExpiredCount(t, "Stop of a stopped timer", p, 0, a, b)

	expireWhileDead(t, sim, p, a, b)
	checkExpiredCount(t, "expired again", p, 2, a, b)
	p.Fail()
	checkExpiredCount(t, "Fail", p, 0, a, b)

	expireWhileDead(t, sim, p, a, b)
	p.Revive()
	checkExpiredCount(t, "Revive", p, 2, a, b)
	e.Reset()
	checkExpiredCount(t, "Reset", p, 0, a, b)
	if fired != 0 {
		t.Fatalf("%d timeouts ran before any live stimulus", fired)
	}

	a.Set(time.Second)
	b.Set(2 * time.Second)
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Errorf("fired = %d after live expiry, want 2", fired)
	}
	checkExpiredCount(t, "consumed", p, 0, a, b)
}

// dispatchProcess wires a process shaped like a protocol node: several
// receive patterns, a guard that is never enabled, and an idle timer.
func dispatchProcess() (*Engine, *Process, Message) {
	e := NewEngine(des.New(), 0)
	p := e.NewProcess(1)
	handled := 0
	isPing := func(m Message) bool { _, ok := m.(*ping); return ok }
	isPong := func(m Message) bool { _, ok := m.(*pong); return ok }
	p.AddReceive("rcvPong", isPong, func(topo.NodeID, Message) {})
	p.AddReceive("rcvPing", isPing, func(topo.NodeID, Message) { handled++ })
	p.AddGuard("never", func() bool { return false }, func() {})
	p.NewTimer("idle", func() {})
	return e, p, &ping{n: 1}
}

// TestDeliverAllocs: delivering a message and running the process to
// quiescence allocates nothing.
func TestDeliverAllocs(t *testing.T) {
	e, p, msg := dispatchProcess()
	e.Deliver(p, 2, msg) // warm the inbox
	if allocs := testing.AllocsPerRun(1000, func() { e.Deliver(p, 2, msg) }); allocs != 0 {
		t.Errorf("Deliver allocates %.1f times per call, want 0", allocs)
	}
}

func BenchmarkDeliver(b *testing.B) {
	e, p, msg := dispatchProcess()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Deliver(p, 2, msg)
	}
}
