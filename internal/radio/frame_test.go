package radio

import (
	"testing"

	"slpdas/internal/topo"
)

// frameLog records the frame id of every delivery, per sender.
type frameLog map[topo.NodeID][]uint64

func (l frameLog) listen(m *Medium, g *topo.Graph) {
	for n := topo.NodeID(0); int(n) < g.Len(); n++ {
		m.SetReceiver(n, func(from topo.NodeID, frame uint64, _ []byte) {
			l[from] = append(l[from], frame)
		})
	}
}

// single returns the one id every delivery from `from` carried.
func (l frameLog) single(t *testing.T, from topo.NodeID, wantDeliveries int) uint64 {
	t.Helper()
	ids := l[from]
	if len(ids) != wantDeliveries {
		t.Fatalf("sender %d: %d deliveries, want %d", from, len(ids), wantDeliveries)
	}
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("sender %d: deliveries of one broadcast carry ids %v", from, ids)
		}
	}
	if ids[0] == 0 {
		t.Fatalf("sender %d: frame id 0; ids start at 1", from)
	}
	return ids[0]
}

// TestFrameIDsIdentifyBroadcasts: every delivery of one broadcast carries
// the same frame id, two broadcasts ending at the same instant carry
// different ids, and ids restart after Reset.
func TestFrameIDsIdentifyBroadcasts(t *testing.T) {
	sim, g, m := newTestMedium(t, 5)
	log := frameLog{}
	log.listen(m, g)
	left, right := topo.GridIndex(5, 1, 2), topo.GridIndex(5, 3, 2)
	// Same start, same payload size: both transmissions end together.
	sim.ScheduleAfter(0, func() {
		m.Broadcast(left, []byte{1, 2, 3})
		m.Broadcast(right, []byte{4, 5, 6})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	a := log.single(t, left, len(g.Neighbors(left)))
	b := log.single(t, right, len(g.Neighbors(right)))
	if a == b {
		t.Errorf("simultaneous broadcasts from %d and %d share frame id %d", left, right, a)
	}

	sim.Reset()
	m.Reset(1, nil, false, nil)
	clear(log)
	m.Broadcast(right, []byte{7})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := log.single(t, right, len(g.Neighbors(right))); got != a {
		t.Errorf("first frame after Reset has id %d, want %d as on a fresh medium", got, a)
	}
}
