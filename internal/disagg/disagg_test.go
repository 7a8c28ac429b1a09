package disagg

import (
	"reflect"
	"testing"

	"diffkv/internal/workload"
)

func TestSplit(t *testing.T) {
	for _, gen := range []int{0, 1, 2, 512} {
		r := workload.Request{ID: 7, ArrivalUs: 1234.5, PromptLen: 300, GenLen: gen, PrefixGroup: 2, PrefixLen: 64}
		pre, handoff := Split(r)
		if handoff != (gen >= 2) {
			t.Fatalf("GenLen %d: handoff %v", gen, handoff)
		}
		want := r
		if handoff {
			want.GenLen = 1 // the first token is produced where the prompt ran
		}
		if pre != want {
			t.Fatalf("GenLen %d: prefill child %+v, want %+v", gen, pre, want)
		}
	}
}

func TestQueuePopsByDueThenSeqID(t *testing.T) {
	want := []Transfer{
		{SeqID: 4, DueUs: 10}, {SeqID: 1, DueUs: 20}, {SeqID: 3, DueUs: 20},
		{SeqID: 9, DueUs: 20}, {SeqID: 2, DueUs: 35},
	}
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 4, 0, 3, 1}} {
		var q Queue
		if _, ok := q.NextDue(); ok {
			t.Fatal("empty queue has a due time")
		}
		for _, i := range order {
			q.Push(want[i])
		}
		if due, ok := q.NextDue(); !ok || due != 10 || q.Len() != len(want) {
			t.Fatalf("push order %v: next due %v (%v), len %d", order, due, ok, q.Len())
		}
		var got []Transfer
		for {
			tr, ok := q.Pop()
			if !ok {
				break
			}
			got = append(got, tr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("push order %v: popped %+v, want %+v", order, got, want)
		}
	}
}

func TestLedgerLinksAndTotals(t *testing.T) {
	var l Ledger
	if len(l.Links()) != 0 || l.TotalBytes() != 0 {
		t.Fatal("empty ledger reports traffic")
	}
	l.Record(2, 3, 100)
	l.Record(0, 3, 40)
	l.Record(0, 1, 7)
	l.Record(2, 3, 11)
	l.Record(0, 3, 2)
	want := []LinkBytes{ // 1-based tags, ordered by (from, to)
		{From: 1, To: 2, Bytes: 7, Transfers: 1},
		{From: 1, To: 4, Bytes: 42, Transfers: 2},
		{From: 3, To: 4, Bytes: 111, Transfers: 2},
	}
	if got := l.Links(); !reflect.DeepEqual(got, want) {
		t.Fatalf("links %+v, want %+v", got, want)
	}
	if got := l.TotalBytes(); got != 160 {
		t.Fatalf("total bytes %d, want 160", got)
	}
}

func TestConfigValidateAndRoles(t *testing.T) {
	for _, tc := range []struct {
		prefill, decode, fleet int
		ok                     bool
	}{
		{1, 1, 2, true},
		{2, 3, 8, true},
		{0, 1, 4, false}, // an empty pool
		{1, 0, 4, false},
		{3, 2, 4, false}, // pools larger than the fleet
	} {
		err := Config{PrefillInstances: tc.prefill, DecodeInstances: tc.decode}.Validate(tc.fleet)
		if (err == nil) != tc.ok {
			t.Fatalf("%d:%d on %d instances: error %v, want ok %v", tc.prefill, tc.decode, tc.fleet, err, tc.ok)
		}
	}
	got := Config{PrefillInstances: 1, DecodeInstances: 2}.Roles(5)
	want := []Role{RolePrefill, RoleDecode, RoleDecode, RoleMixed, RoleMixed}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roles %v, want %v (leftover instances serve mixed)", got, want)
	}
}
