package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

// mergedView merges the node lists, in order, into a fresh cluster
// whose own ID is "self" and returns the resulting table.
func mergedView(lists ...[]Node) []Node {
	clock := newFakeClock()
	c := New(Config{NodeID: "self", Addr: "http://self", Now: clock.Now})
	for _, l := range lists {
		c.merge(l)
	}
	return c.Members()
}

// TestMergeAddrTieIsOrderIndependent: a node restarted under the same
// ID on a new address gossips an entry with the same incarnation and
// state as its old one. Every node must keep the same address whichever
// entry it hears first.
func TestMergeAddrTieIsOrderIndependent(t *testing.T) {
	old := Node{ID: "b", Addr: "http://10.0.0.2:8080", Incarnation: 3, State: StateAlive}
	moved := old
	moved.Addr = "http://10.0.0.9:8080"
	oldFirst := mergedView([]Node{old}, []Node{moved})
	movedFirst := mergedView([]Node{moved}, []Node{old})
	if !reflect.DeepEqual(oldFirst, movedFirst) {
		t.Errorf("the peer table depends on arrival order:\nold first:   %+v\nmoved first: %+v", oldFirst, movedFirst)
	}
}

// fuzzNodes decodes fuzz bytes, three per node, into a gossip node list
// over small alphabets of IDs (self and the empty ID included),
// addresses, incarnations and states (one unknown to the protocol), so
// that entries for one ID collide often.
func fuzzNodes(b []byte) []Node {
	ids := []string{"", "self", "a", "b"}
	states := []NodeState{StateAlive, StateSuspect, StateDead, "unknown"}
	var out []Node
	for ; len(b) >= 3; b = b[3:] {
		out = append(out, Node{
			ID:          ids[b[0]%4],
			Addr:        fmt.Sprintf("http://10.0.0.%d", b[0]/4%3),
			Incarnation: uint64(b[1] % 4),
			State:       states[b[2]%4],
		})
	}
	return out
}

// FuzzMembershipMerge: merging two gossip peer lists is commutative and
// idempotent on the resulting peer table, self's incarnation included.
func FuzzMembershipMerge(f *testing.F) {
	// Same ID, incarnation and state; different addresses.
	f.Add([]byte{2, 3, 0}, []byte{6, 3, 0})
	f.Add([]byte{2, 1, 1, 3, 2, 0}, []byte{2, 1, 2, 7, 2, 0, 1, 0, 1})
	f.Add([]byte{1, 3, 2, 10, 0, 3}, []byte{5, 3, 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		la, lb := fuzzNodes(a), fuzzNodes(b)
		ab := mergedView(la, lb)
		if ba := mergedView(lb, la); !reflect.DeepEqual(ab, ba) {
			t.Errorf("merge is not commutative:\na then b: %+v\nb then a: %+v", ab, ba)
		}
		if again := mergedView(la, lb, la, lb); !reflect.DeepEqual(ab, again) {
			t.Errorf("merge is not idempotent:\nonce:  %+v\ntwice: %+v", ab, again)
		}
	})
}
