package chase

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/order"
)

// TestEventSize pins the worklist entry at 24 bytes: a target event
// names its value's source instead of carrying a model.Value, so a long
// correlation cascade queues a few machine words per entry.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Fatalf("event is %d bytes, want 24", got)
	}
}

// TestPushPairMaskOrder pins what the worklist admits: pairs the
// relation already holds are dropped, and a push joins the pending
// tail event only when all its bits follow the tail's, so the merged
// event applies the pairs in the order they were pushed.
func TestPushPairMaskOrder(t *testing.T) {
	e := &engine{orders: order.NewSet(1, 128)}
	e.orders.Attr(0).Add(0, 2)
	e.pushPair(0, 0, 2) // held: dropped
	e.pushPair(0, 0, 5)
	e.pushPair(0, 0, 7)  // after bit 5 in the same word: merged
	e.pushPair(0, 0, 3)  // before bit 7: an event of its own
	e.pushPair(0, 0, 70) // next word
	e.pushPair(0, 1, 71) // next row
	want := []event{
		{kind: evPairMask, i: 0, wi: 0, mask: 1<<5 | 1<<7},
		{kind: evPairMask, i: 0, wi: 0, mask: 1 << 3},
		{kind: evPairMask, i: 0, wi: 1, mask: 1 << 6},
		{kind: evPairMask, i: 1, wi: 1, mask: 1 << 7},
	}
	if !reflect.DeepEqual(e.queue, want) {
		t.Fatalf("queue = %+v, want %+v", e.queue, want)
	}
	// A consumed tail is never extended.
	e.head = len(e.queue)
	e.pushPair(0, 1, 72)
	if len(e.queue) != len(want)+1 || e.queue[len(want)-1].mask != 1<<7 {
		t.Fatalf("push after the tail was consumed: queue = %+v", e.queue)
	}
}
