package stats

import (
	"reflect"
	"testing"
)

func TestSnapshotKeysSorted(t *testing.T) {
	s := Snapshot{"z": 1, "a": 2, "m": 3}
	if got, want := s.Keys(), []string{"a", "m", "z"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Keys() = %v, want %v", got, want)
	}
}

func TestSnapshotMergePrefixes(t *testing.T) {
	s := Snapshot{"top": 1}
	s.Merge("ctrl", Snapshot{"swaps": 4, "hits": 2})
	s.Merge("", Snapshot{"bare": 9})
	want := Snapshot{"top": 1, "ctrl.swaps": 4, "ctrl.hits": 2, "bare": 9}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("after Merge: %v, want %v", s, want)
	}
}

func TestSnapshotAddAccumulates(t *testing.T) {
	s := Snapshot{}
	run := Snapshot{"cycles": 10, "hits": 1}
	s.Add("sim", run)
	s.Add("sim", run)
	if s["sim.cycles"] != 20 || s["sim.hits"] != 2 {
		t.Errorf("Add did not accumulate: %v", s)
	}
}
