package core

import (
	"fmt"

	"icash/internal/sig"
)

// Kind classifies a virtual block (paper §4.3).
type Kind uint8

const (
	// Independent blocks have no reference association; their current
	// content lives in RAM and/or at their HDD home (or an SSD slot
	// after a threshold write-through).
	Independent Kind = iota
	// Reference blocks hold popular content in an SSD slot; associates
	// are delta-encoded against them.
	Reference
	// Associate blocks are represented as reference + delta.
	Associate
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case Independent:
		return "independent"
	case Reference:
		return "reference"
	case Associate:
		return "associate"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// vblock is the per-LBA metadata record ("virtual block", paper §4.3):
// the LBA, the content signature, the reference association, and
// pointers to cached data and delta bytes. The newest durable log record
// for the LBA, if any, is tracked centrally in Controller.logIndex.
type vblock struct {
	lba  int64
	kind Kind
	sigv sig.Signature

	// slotRef is the SSD reference slot this block is attached to (nil
	// for plain independents). Attached blocks are decodable as slot
	// content plus delta. The block flagged as the slot's donor is the
	// "reference block"; other attached blocks are associates.
	// Independent blocks may also hold a slotRef after a threshold
	// write-through (§5.3): the slot then carries the block's current
	// content directly (ssdCurrent == true).
	slotRef *refSlot

	// dataRAM caches the full current content (nil when evicted).
	dataRAM []byte
	// dataDirty marks dataRAM newer than every durable copy.
	dataDirty bool
	// hddHome is true when the block's HDD home location holds its
	// current content.
	hddHome bool
	// ssdCurrent is true when the attached SSD slot holds the block's
	// *current* content (write-through blocks; for a donor it means no
	// self-delta has accumulated).
	ssdCurrent bool

	// deltaRAM holds the current delta against the slot content.
	deltaRAM []byte
	// deltaDirty marks deltaRAM as not yet packed into the log.
	deltaDirty bool
	// deltaCRC is the CRC32-C of deltaRAM, set when the delta is
	// stored; materialize verifies it before decoding so a corrupt
	// cache entry is never baked into served content.
	deltaCRC uint32

	// LRU linkage (intrusive doubly-linked list).
	prev, next *vblock
	// stamp orders the LRU: every push and touch takes the next value
	// of the list's clock, so a smaller stamp is a colder block. 0 means
	// the block is not linked.
	stamp uint64
	// heapPos is the block's position plus one in each class heap of
	// the LRU (0 when it is not a member).
	heapPos [numClasses]int32
	// inDirty marks membership in the dirty-delta flush queue.
	inDirty bool
	// dead marks a block evicted from the controller; holders of stale
	// pointers (the scan window snapshot) must skip it.
	dead bool
}

// lruClass names a replacement class: a set of LRU blocks whose coldest
// member an eviction path looks for.
type lruClass uint8

const (
	// classData holds the blocks caching dataRAM (data-block
	// replacement, §4.3).
	classData lruClass = iota
	// classWriteThrough holds the Independent blocks that hold a slot:
	// threshold write-throughs, recycled to free SSD slots.
	classWriteThrough
	numClasses
)

// member reports whether a linked block v belongs to class cls.
func (cls lruClass) member(v *vblock) bool {
	if cls == classData {
		return v.dataRAM != nil
	}
	return v.kind == Independent && v.slotRef != nil
}

// lruList is an intrusive LRU list of vblocks. head is most recently
// used, tail least. Every push and touch stamps the block from a
// monotonically increasing clock, so LRU order is stamp order, and each
// replacement class is also kept in an intrusive min-heap keyed by
// stamp: the heap minimum is the block a tail scan filtered on that
// class would reach first, found in O(1) and maintained in O(log n).
type lruList struct {
	head, tail *vblock
	n          int
	clock      uint64
	heaps      [numClasses][]*vblock
}

// link inserts v at the head with a fresh stamp.
func (l *lruList) link(v *vblock) {
	v.prev = nil
	v.next = l.head
	if l.head != nil {
		l.head.prev = v
	}
	l.head = v
	if l.tail == nil {
		l.tail = v
	}
	l.n++
	l.clock++
	v.stamp = l.clock
}

// unlink takes v out of the list, leaving its heap positions alone.
func (l *lruList) unlink(v *vblock) {
	if v.prev != nil {
		v.prev.next = v.next
	} else {
		l.head = v.next
	}
	if v.next != nil {
		v.next.prev = v.prev
	} else {
		l.tail = v.prev
	}
	v.prev, v.next = nil, nil
	l.n--
}

// pushFront inserts v at the head (most recently used) and enters it
// into the classes it belongs to.
func (l *lruList) pushFront(v *vblock) {
	l.link(v)
	l.sync(v)
}

// remove unlinks v and drops it from every class.
func (l *lruList) remove(v *vblock) {
	l.unlink(v)
	v.stamp = 0
	l.sync(v)
}

// moveToFront marks v most recently used. Its stamp only grows, so in
// each heap it can only sink.
func (l *lruList) moveToFront(v *vblock) {
	if l.head == v {
		return
	}
	l.unlink(v)
	l.link(v)
	for cls := range v.heapPos {
		if p := v.heapPos[cls]; p != 0 {
			l.down(lruClass(cls), int(p-1))
		}
	}
}

// len returns the list length.
func (l *lruList) len() int { return l.n }

// sync brings v's class memberships in line with its state: a linked
// block joins every class it qualifies for and leaves the others; an
// unlinked block belongs to none. Every write to a field a class tests
// (dataRAM, kind, slotRef) is followed by a sync.
func (l *lruList) sync(v *vblock) {
	for cls := lruClass(0); cls < numClasses; cls++ {
		want := v.stamp != 0 && cls.member(v)
		if have := v.heapPos[cls] != 0; want && !have {
			l.push(cls, v)
		} else if have && !want {
			l.leave(cls, v)
		}
	}
}

// coldest returns the member of cls with the smallest stamp other than
// skip (which may be nil), or nil. The runner-up of a binary heap is
// one of the root's children.
func (l *lruList) coldest(cls lruClass, skip *vblock) *vblock {
	h := l.heaps[cls]
	switch {
	case len(h) == 0:
		return nil
	case h[0] != skip:
		return h[0]
	case len(h) == 1:
		return nil
	case len(h) == 2 || h[1].stamp < h[2].stamp:
		return h[1]
	default:
		return h[2]
	}
}

// push adds v to the heap of cls.
func (l *lruList) push(cls lruClass, v *vblock) {
	i := len(l.heaps[cls])
	l.heaps[cls] = append(l.heaps[cls], v)
	v.heapPos[cls] = int32(i + 1)
	l.up(cls, i)
}

// leave removes v from the heap of cls. A caller that sets a member
// aside while it searches past it restores it with sync.
func (l *lruList) leave(cls lruClass, v *vblock) {
	h := l.heaps[cls]
	i, last := int(v.heapPos[cls]-1), len(h)-1
	v.heapPos[cls] = 0
	if i != last {
		h[i] = h[last]
		h[i].heapPos[cls] = int32(i + 1)
	}
	h[last] = nil
	l.heaps[cls] = h[:last]
	if i != last && !l.down(cls, i) {
		l.up(cls, i)
	}
}

// up moves the element at i towards the root until its parent is
// colder.
func (l *lruList) up(cls lruClass, i int) {
	h := l.heaps[cls]
	v := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if h[p].stamp < v.stamp {
			break
		}
		h[i] = h[p]
		h[i].heapPos[cls] = int32(i + 1)
		i = p
	}
	h[i] = v
	v.heapPos[cls] = int32(i + 1)
}

// down moves the element at i away from the root until both children
// are warmer. Reports whether it moved.
func (l *lruList) down(cls lruClass, i int) bool {
	h := l.heaps[cls]
	v, start := h[i], i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].stamp < h[c].stamp {
			c = r
		}
		if v.stamp < h[c].stamp {
			break
		}
		h[i] = h[c]
		h[i].heapPos[cls] = int32(i + 1)
		i = c
	}
	h[i] = v
	v.heapPos[cls] = int32(i + 1)
	return i != start
}
