package core

import (
	"testing"

	"slpdas/internal/fault"
	"slpdas/internal/gcn"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// scanLosers is the reference for node.losers: a fresh scan of the whole
// info table under the collision rule of Figure 2.
func scanLosers(n *node) int {
	if n.slot == noValue || n.isSink() {
		return 0
	}
	count := 0
	for k, j := range n.ninfo.ids {
		if j == n.id {
			continue
		}
		in := n.ninfo.infos[k]
		if in.slot != n.slot || in.slot == noValue {
			continue
		}
		if n.hop > in.hop || (n.hop == in.hop && n.net.orderKey(n.id) > n.net.orderKey(j)) {
			count++
		}
	}
	return count
}

// checkLosersInvariant runs net to completion, checking before every
// executed GCN action that every node's incremental loser count equals a
// fresh scan of its table. It returns how many resolve actions ran, so a
// caller can insist the collision rule was actually exercised.
func checkLosersInvariant(t *testing.T, net *Network) (resolves int, res *Result) {
	t.Helper()
	failed := false
	net.engine.OnAction = func(p *gcn.Process, name string) {
		if name == "resolve" {
			resolves++
		}
		if failed {
			return
		}
		for _, nd := range net.nodes {
			if want := scanLosers(nd); nd.losers != want {
				t.Errorf("t=%v before %s at node %d: node %d losers = %d, fresh scan = %d",
					net.sim.Now(), name, p.ID(), nd.id, nd.losers, want)
				failed = true
				return
			}
		}
	}
	res, err := net.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return resolves, res
}

// TestLosersMatchFreshScan pins the incremental collision count behind the
// resolve guard to the full-table scan it replaces, under the faithful
// unit decrement, under FastCollisionResolve, and through churn, whose
// recoveries rewind nodes through reset mid-run.
func TestLosersMatchFreshScan(t *testing.T) {
	t.Run("grid-faithful", func(t *testing.T) {
		g, err := topo.DefaultGrid(7)
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewNetwork(g, topo.GridCentre(7), topo.GridTopLeft(), DefaultSLP(2), 3)
		if err != nil {
			t.Fatal(err)
		}
		if resolves, _ := checkLosersInvariant(t, net); resolves == 0 {
			t.Error("no resolve action ran; the invariant was never exercised")
		}
	})
	t.Run("rgg-fast-resolve", func(t *testing.T) {
		g, err := topo.RandomGeometric(60, 50, 50, 11, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Default()
		cfg.FastCollisionResolve = true
		net, err := NewNetwork(g, 0, topo.NodeID(g.Len()-1), cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if resolves, _ := checkLosersInvariant(t, net); resolves == 0 {
			t.Error("no resolve action ran; the invariant was never exercised")
		}
	})
	t.Run("churn", func(t *testing.T) {
		g, err := topo.DefaultGrid(7)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Default()
		cfg.Faults = fault.Spec{Kind: fault.Churn, Rate: 0.25, MTTR: 2}
		net, err := NewNetwork(g, topo.GridCentre(7), topo.GridTopLeft(), cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		resolves, res := checkLosersInvariant(t, net)
		if resolves == 0 {
			t.Error("no resolve action ran; the invariant was never exercised")
		}
		if res.NodesRecovered == 0 {
			t.Error("no node recovered; the reset path was never exercised")
		}
	})
}

// TestLosersFollowEntryOverwrites drives onDissem's merge directly through
// the overwrites a run rarely produces: an entry the node yields to is
// replaced before resolve can fire (in a run that needs a node pinned at
// slot 0), so the merge must retract the old entry's count.
func TestLosersFollowEntryOverwrites(t *testing.T) {
	g, err := topo.DefaultGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(g, topo.GridCentre(5), topo.GridTopLeft(), Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	nd := net.nodes[0]
	nd.hop, nd.slot = 2, 5
	nd.recountLosers()
	const sender, j = topo.NodeID(1), topo.NodeID(7)
	for _, step := range []struct {
		hop, slot int32
		want      int
	}{
		{hop: 1, slot: 5, want: 1}, // same slot, smaller hop: yield
		{hop: 1, slot: 4, want: 0}, // moved away
		{hop: 1, slot: 5, want: 1}, // back
		{hop: 3, slot: 5, want: 0}, // greater hop: j yields instead
		{hop: noValue, slot: noValue, want: 0},
		{hop: 1, slot: 5, want: 1},
	} {
		nd.version++ // keep the node's own entry out of the merge
		ver := uint32(0)
		if in, ok := nd.ninfo.get(j); ok {
			ver = in.version
		}
		nd.onDissem(sender, &wire.Dissem{From: sender, Normal: true, Parent: topo.None, Infos: []wire.NodeInfo{
			{Node: j, Hop: step.hop, Slot: step.slot, Version: ver + 1},
		}})
		if nd.losers != step.want || nd.losers != scanLosers(nd) {
			t.Fatalf("after j=(hop %d, slot %d): losers = %d, want %d (fresh scan %d)",
				step.hop, step.slot, nd.losers, step.want, scanLosers(nd))
		}
	}
}
