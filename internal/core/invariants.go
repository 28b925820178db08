package core

import "fmt"

// CheckInvariants validates the controller's cross-structure
// consistency. Tests call it after randomized operation sequences; it
// is not part of any hot path.
//
// Checked relations:
//   - the LRU list and the block map contain exactly the same blocks;
//   - slot reference counts equal the number of attached blocks, and
//     every live slot is reachable from the slots map;
//   - free, quarantined and live slots partition the SSD exactly;
//   - the delta budget equals the segment-rounded sum of resident
//     deltas, and the data budget equals the resident data blocks;
//   - logIndex entries point at blocks the cleaner still tracks
//     (logMeta), and perLba counts match the per-block record census;
//   - LRU stamps fall strictly from head to tail, and each class heap
//     holds exactly the blocks of its class, in heap order;
//   - heldLogBlocks equals a recount of the blocks held by
//     transactions with live records.
func (c *Controller) CheckInvariants() error {
	// LRU <-> map agreement.
	seen := make(map[int64]bool, c.lru.len())
	n := 0
	for v := c.lru.head; v != nil; v = v.next {
		if v.dead {
			return fmt.Errorf("core: dead block %d still in LRU", v.lba)
		}
		if seen[v.lba] {
			return fmt.Errorf("core: lba %d appears twice in LRU", v.lba)
		}
		seen[v.lba] = true
		if c.blocks[v.lba] != v {
			return fmt.Errorf("core: LRU block %d not in map", v.lba)
		}
		n++
	}
	if n != len(c.blocks) || n != c.lru.len() {
		return fmt.Errorf("core: LRU has %d blocks, map has %d, count says %d",
			n, len(c.blocks), c.lru.len())
	}
	if err := c.lru.check(); err != nil {
		return err
	}

	// Slot refcounts and partition of SSD slots.
	refcnt := make(map[*refSlot]int)
	for v := c.lru.head; v != nil; v = v.next {
		if v.slotRef != nil {
			refcnt[v.slotRef]++
			if c.slots[v.slotRef.index] != v.slotRef {
				return fmt.Errorf("core: lba %d attached to unregistered slot %d",
					v.lba, v.slotRef.index)
			}
		}
	}
	for idx, s := range c.slots {
		if s.index != idx {
			return fmt.Errorf("core: slot map key %d holds slot %d", idx, s.index)
		}
		if refcnt[s] != s.refcnt {
			return fmt.Errorf("core: slot %d refcnt=%d, actual attached=%d",
				s.index, s.refcnt, refcnt[s])
		}
		if s.refcnt <= 0 {
			return fmt.Errorf("core: live slot %d with refcnt %d", s.index, s.refcnt)
		}
	}
	used := make(map[int64]string)
	for idx := range c.slots {
		used[idx] = "live"
	}
	for _, idx := range c.freeSlots {
		if prev, ok := used[idx]; ok {
			return fmt.Errorf("core: slot %d both free and %s", idx, prev)
		}
		used[idx] = "free"
	}
	for _, idx := range c.quarantine {
		if prev, ok := used[idx]; ok {
			return fmt.Errorf("core: slot %d both quarantined and %s", idx, prev)
		}
		used[idx] = "quarantined"
	}
	for _, idx := range c.retiredSlots {
		if prev, ok := used[idx]; ok {
			return fmt.Errorf("core: slot %d both retired and %s", idx, prev)
		}
		used[idx] = "retired"
	}
	if int64(len(used)) != c.cfg.SSDBlocks {
		return fmt.Errorf("core: %d slots accounted, SSD has %d", len(used), c.cfg.SSDBlocks)
	}

	// Retired log blocks must not be tracked by the cleaner.
	for b := range c.badLogBlocks {
		if len(c.logMeta[b]) > 0 {
			return fmt.Errorf("core: retired log block %d still tracked by the cleaner", b)
		}
	}

	// RAM budgets.
	var deltaBytes, dataBytes int64
	for v := c.lru.head; v != nil; v = v.next {
		if v.deltaRAM != nil {
			deltaBytes += c.segBytes(len(v.deltaRAM))
		}
		if v.dataRAM != nil {
			dataBytes += int64(len(v.dataRAM))
		}
	}
	if deltaBytes != c.deltaBudget.Used() {
		return fmt.Errorf("core: delta budget says %d, resident deltas sum to %d",
			c.deltaBudget.Used(), deltaBytes)
	}
	if dataBytes != c.dataBudget.Used() {
		return fmt.Errorf("core: data budget says %d, resident data sums to %d",
			c.dataBudget.Used(), dataBytes)
	}

	// Log index vs per-block metadata census.
	census := make(map[int64]int)
	for block, metas := range c.logMeta {
		for i := range metas {
			census[metas[i].lba]++
			if metas[i].kind != entryDelta && metas[i].kind != entryPointer && metas[i].kind != entryTombstone {
				return fmt.Errorf("core: log block %d has record of kind %d", block, metas[i].kind)
			}
		}
	}
	for lba, cnt := range c.perLba {
		if census[lba] != cnt {
			return fmt.Errorf("core: perLba[%d]=%d, census says %d", lba, cnt, census[lba])
		}
	}
	for lba, cnt := range census {
		if c.perLba[lba] != cnt {
			return fmt.Errorf("core: census[%d]=%d, perLba says %d", lba, cnt, c.perLba[lba])
		}
	}
	for lba, rec := range c.logIndex {
		metas := c.logMeta[rec.block]
		found := false
		for i := range metas {
			if metas[i].lba == lba && metas[i].seq == rec.seq && metas[i].kind == rec.kind {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: logIndex[%d] points at missing record (block %d seq %d)",
				lba, rec.block, rec.seq)
		}
	}

	// Transaction bookkeeping: tracked blocks and transactions point at
	// each other exactly, and the per-transaction live counts (which
	// gate block reuse) match the live-record census.
	for b := range c.logMeta {
		if _, ok := c.blockTxn[b]; !ok {
			return fmt.Errorf("core: log block %d tracked without a transaction", b)
		}
	}
	for b, t := range c.blockTxn {
		if c.badLogBlocks[b] {
			return fmt.Errorf("core: retired log block %d still in txn %d", b, t)
		}
		found := false
		for _, bb := range c.txnBlocks[t] {
			if bb == b {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: log block %d claims txn %d, which does not list it", b, t)
		}
	}
	for t, blocks := range c.txnBlocks {
		if len(blocks) == 0 {
			return fmt.Errorf("core: txn %d tracked with no blocks", t)
		}
		if _, ok := c.txnLive[t]; !ok {
			return fmt.Errorf("core: txn %d has blocks but no live count", t)
		}
		for _, b := range blocks {
			if owner, ok := c.blockTxn[b]; !ok || owner != t {
				return fmt.Errorf("core: txn %d lists block %d owned by txn %d", t, b, owner)
			}
		}
	}
	for t := range c.txnLive {
		if _, ok := c.txnBlocks[t]; !ok {
			return fmt.Errorf("core: txn %d has a live count but no blocks", t)
		}
	}
	txnCensus := make(map[uint64]int)
	for _, rec := range c.logIndex {
		t, ok := c.blockTxn[rec.block]
		if !ok {
			return fmt.Errorf("core: live record in block %d outside any transaction", rec.block)
		}
		txnCensus[t]++
	}
	for t, live := range c.txnLive {
		if txnCensus[t] != live {
			return fmt.Errorf("core: txnLive[%d]=%d, census says %d", t, live, txnCensus[t])
		}
	}
	var held int64
	for _, t := range c.blockTxn {
		if c.txnLive[t] > 0 {
			held++
		}
	}
	if held != c.heldLogBlocks {
		return fmt.Errorf("core: heldLogBlocks=%d, recount says %d", c.heldLogBlocks, held)
	}

	// Dirty-queue membership flags.
	for _, v := range c.dirtyQ {
		if v.inDirty && v.dead {
			return fmt.Errorf("core: dead block %d marked dirty", v.lba)
		}
	}
	return nil
}

// check recounts the stamp order and the class heaps from the list.
func (l *lruList) check() error {
	var members [numClasses]int
	for v := l.head; v != nil; v = v.next {
		if v.stamp == 0 || v.stamp > l.clock || (v.next != nil && v.next.stamp >= v.stamp) {
			return fmt.Errorf("core: LRU block %d has stamp %d out of order", v.lba, v.stamp)
		}
		for cls := lruClass(0); cls < numClasses; cls++ {
			h, p := l.heaps[cls], int(v.heapPos[cls])
			in := p > 0 && p <= len(h) && h[p-1] == v
			if in != cls.member(v) || (!in && p != 0) {
				return fmt.Errorf("core: LRU block %d: class %d heap position %d, member=%v", v.lba, cls, p, cls.member(v))
			}
			if in {
				members[cls]++
			}
		}
	}
	for cls, h := range l.heaps {
		if len(h) != members[cls] {
			return fmt.Errorf("core: class %d heap holds %d blocks, LRU has %d members", cls, len(h), members[cls])
		}
		for i := 1; i < len(h); i++ {
			if h[(i-1)/2].stamp > h[i].stamp {
				return fmt.Errorf("core: class %d heap out of order at %d", cls, i)
			}
		}
	}
	return nil
}
