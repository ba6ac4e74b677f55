package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Slotted-page layout.
//
// A page is a fixed-size byte array with a small header, a slot directory
// growing down from the end, and record data growing up from the header:
//
//	+------------------+--------------------------+----------------+
//	| header (16 B)    | records ->     ...  <- free space  | slots |
//	+------------------+--------------------------+----------------+
//
// Header fields (little endian):
//
//	0..4   pageLSN      (uint32) — recovery LSN of the last update
//	4..6   numSlots     (uint16)
//	6..8   freeStart    (uint16) — offset of first free byte after records
//	8..12  nextPage     (uint32) — chain link used by files and overflow
//	12..14 freeBytes    (uint16) — reclaimable bytes (including slot holes)
//	14..16 pageKind     (uint16)
//
// Each slot is 4 bytes: offset (uint16), length (uint16). A slot with
// offset == 0 is a tombstone; record data never starts at offset 0 because
// the header occupies it.
const (
	pageHeaderSize = 16
	slotSize       = 4

	offLSN       = 0
	offNumSlots  = 4
	offFreeStart = 6
	offNextPage  = 8
	offFreeBytes = 12
	offPageKind  = 14
)

// Kinds of pages, stored in the page header so that recovery and debugging
// tools can interpret raw pages.
const (
	PageKindFree uint16 = iota
	PageKindHeap        // slotted record page
	PageKindBTree
	PageKindHash
	PageKindOverflow
	PageKindMeta
	PageKindRTree
)

// SlotID identifies a record within a page.
type SlotID uint16

// Page wraps one block worth of bytes with slotted-page accessors. A Page
// does not own its buffer: buffer-pool frames hand out Pages aliasing the
// frame memory, so mutations are visible to the pool (which tracks dirtiness
// explicitly via MarkDirty).
type Page struct {
	ID  PageID
	buf []byte
}

// NewPage wraps buf, which must be a full block, as a Page.
func NewPage(id PageID, buf []byte) *Page {
	return &Page{ID: id, buf: buf}
}

// Bytes returns the underlying buffer.
func (p *Page) Bytes() []byte { return p.buf }

// InitHeap formats the page as an empty slotted heap page of the given kind.
func (p *Page) InitHeap(kind uint16) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.setU16(offFreeStart, pageHeaderSize)
	p.setU16(offPageKind, kind)
}

// Kind returns the page kind from the header.
func (p *Page) Kind() uint16 { return p.u16(offPageKind) }

// LSN returns the recovery LSN of the last update applied to the page.
func (p *Page) LSN() uint32 { return p.u32(offLSN) }

// SetLSN records the recovery LSN of the last update applied to the page.
func (p *Page) SetLSN(lsn uint32) { p.setU32(offLSN, lsn) }

// NextPage returns the chain link (0 if none).
func (p *Page) NextPage() PageID { return PageID(p.u32(offNextPage)) }

// SetNextPage sets the chain link.
func (p *Page) SetNextPage(id PageID) { p.setU32(offNextPage, uint32(id)) }

// NumSlots returns the number of slot entries, including tombstones.
func (p *Page) NumSlots() int { return int(p.u16(offNumSlots)) }

// FreeSpace returns the number of bytes available for a new record,
// accounting for the slot entry it would need.
func (p *Page) FreeSpace() int {
	return max(p.gap()-slotSize, 0)
}

// FreeSpaceAfterCompaction additionally counts the holes left by deleted or
// shrunk records, which Compact can reclaim. The sum is taken over the
// unclamped gap: a gap narrower than a slot entry would otherwise be
// counted as zero and the holes would overstate the room by up to a slot.
func (p *Page) FreeSpaceAfterCompaction() int {
	return max(p.gap()-slotSize+int(p.u16(offFreeBytes)), 0)
}

// gap is the byte count between the end of the records and the start of
// the slot directory.
func (p *Page) gap() int { return p.slotDirStart() - int(p.u16(offFreeStart)) }

// Insert stores rec in the page and returns its slot. It fails with
// ErrPageFull if the record cannot fit even after compaction.
func (p *Page) Insert(rec []byte) (SlotID, error) {
	// The room is compared unclamped: even an empty record needs its slot
	// entry.
	need := len(rec)
	if room := p.gap() - slotSize; need > room {
		if need > room+int(p.u16(offFreeBytes)) {
			return 0, ErrPageFull
		}
		p.Compact()
	}
	// Reuse a tombstone slot if one exists, else append a new slot.
	slot := -1
	for i := 0; i < p.NumSlots(); i++ {
		if p.slotOffset(i) == 0 {
			slot = i
			break
		}
	}
	if slot == -1 {
		slot = p.NumSlots()
		p.setU16(offNumSlots, uint16(slot+1))
	}
	start := int(p.u16(offFreeStart))
	copy(p.buf[start:], rec)
	p.setSlot(slot, uint16(start), uint16(len(rec)))
	p.setU16(offFreeStart, uint16(start+len(rec)))
	return SlotID(slot), nil
}

// Get returns the record stored in the slot. The returned slice aliases the
// page buffer; callers that retain it across unpin must copy.
func (p *Page) Get(slot SlotID) ([]byte, error) {
	if int(slot) >= p.NumSlots() {
		return nil, fmt.Errorf("storage: slot %d out of range (page %d has %d)", slot, p.ID, p.NumSlots())
	}
	off := p.slotOffset(int(slot))
	if off == 0 {
		return nil, ErrRecordGone
	}
	ln := p.slotLength(int(slot))
	return p.buf[off : off+ln], nil
}

// Delete tombstones the slot and accounts its bytes as reclaimable.
func (p *Page) Delete(slot SlotID) error {
	if int(slot) >= p.NumSlots() {
		return fmt.Errorf("storage: delete of slot %d out of range on page %d", slot, p.ID)
	}
	off := p.slotOffset(int(slot))
	if off == 0 {
		return ErrRecordGone
	}
	ln := p.slotLength(int(slot))
	p.setSlot(int(slot), 0, 0)
	p.setU16(offFreeBytes, p.u16(offFreeBytes)+uint16(ln))
	return nil
}

// Update replaces the record in the slot. If the new record does not fit in
// place it is relocated within the page; ErrPageFull is returned if the page
// cannot hold it at all (callers then move the record and leave a forward
// pointer, see store.go).
func (p *Page) Update(slot SlotID, rec []byte) error {
	if int(slot) >= p.NumSlots() {
		return fmt.Errorf("storage: update of slot %d out of range on page %d", slot, p.ID)
	}
	off := p.slotOffset(int(slot))
	if off == 0 {
		return ErrRecordGone
	}
	ln := p.slotLength(int(slot))
	if len(rec) <= ln {
		copy(p.buf[off:], rec)
		p.setSlot(int(slot), uint16(off), uint16(len(rec)))
		p.setU16(offFreeBytes, p.u16(offFreeBytes)+uint16(ln-len(rec)))
		return nil
	}
	// Relocate within the page.
	need := len(rec)
	if need > p.gap() { // slot already exists; no new slot needed
		if need > p.gap()+int(p.u16(offFreeBytes)) {
			return ErrPageFull
		}
		p.setSlot(int(slot), 0, 0)
		p.setU16(offFreeBytes, p.u16(offFreeBytes)+uint16(ln))
		p.Compact()
	} else {
		p.setSlot(int(slot), 0, 0)
		p.setU16(offFreeBytes, p.u16(offFreeBytes)+uint16(ln))
	}
	start := int(p.u16(offFreeStart))
	if start+need > p.slotDirStart() {
		p.Compact()
		start = int(p.u16(offFreeStart))
		if start+need > p.slotDirStart() {
			return ErrPageFull
		}
	}
	copy(p.buf[start:], rec)
	p.setSlot(int(slot), uint16(start), uint16(need))
	p.setU16(offFreeStart, uint16(start+need))
	return nil
}

// Compact rewrites live records contiguously after the header, eliminating
// holes. Slot numbers are stable across compaction.
func (p *Page) Compact() {
	n := p.NumSlots()
	type live struct {
		slot int
		data []byte
	}
	records := make([]live, 0, n)
	for i := 0; i < n; i++ {
		off := p.slotOffset(i)
		if off == 0 {
			continue
		}
		ln := p.slotLength(i)
		cp := make([]byte, ln)
		copy(cp, p.buf[off:off+ln])
		records = append(records, live{i, cp})
	}
	start := pageHeaderSize
	for _, r := range records {
		copy(p.buf[start:], r.data)
		p.setSlot(r.slot, uint16(start), uint16(len(r.data)))
		start += len(r.data)
	}
	p.setU16(offFreeStart, uint16(start))
	p.setU16(offFreeBytes, 0)
}

// Slots iterates over live slots, calling fn with each slot id and record.
// The record slice aliases the page buffer.
func (p *Page) Slots(fn func(SlotID, []byte) bool) {
	for i := 0; i < p.NumSlots(); i++ {
		off := p.slotOffset(i)
		if off == 0 {
			continue
		}
		ln := p.slotLength(i)
		if !fn(SlotID(i), p.buf[off:off+ln]) {
			return
		}
	}
}

// LiveRecords returns the number of non-tombstoned slots.
func (p *Page) LiveRecords() int {
	n := 0
	for i := 0; i < p.NumSlots(); i++ {
		if p.slotOffset(i) != 0 {
			n++
		}
	}
	return n
}

// CheckLayout verifies the slotted-page invariants: the records end at or
// before the slot directory, every live record lies inside the record area
// [header, freeStart) without overlapping another, and the hole count
// equals the record area's bytes not held by a live record.
func (p *Page) CheckLayout() error {
	freeStart, dir := int(p.u16(offFreeStart)), p.slotDirStart()
	if freeStart < pageHeaderSize || freeStart > dir {
		return fmt.Errorf("storage: page %d: freeStart %d outside [%d, %d]", p.ID, freeStart, pageHeaderSize, dir)
	}
	type extent struct{ off, end, slot int }
	var live []extent
	held := 0
	for i := 0; i < p.NumSlots(); i++ {
		off := p.slotOffset(i)
		if off == 0 {
			continue
		}
		end := off + p.slotLength(i)
		if off < pageHeaderSize || end > freeStart {
			return fmt.Errorf("storage: page %d: slot %d record [%d, %d) outside [%d, %d)", p.ID, i, off, end, pageHeaderSize, freeStart)
		}
		if end > off { // an empty record holds no bytes to overlap
			live = append(live, extent{off, end, i})
			held += end - off
		}
	}
	slices.SortFunc(live, func(a, b extent) int { return a.off - b.off })
	for i := 1; i < len(live); i++ {
		if live[i].off < live[i-1].end {
			return fmt.Errorf("storage: page %d: slots %d and %d overlap", p.ID, live[i-1].slot, live[i].slot)
		}
	}
	if holes := int(p.u16(offFreeBytes)); holes != freeStart-pageHeaderSize-held {
		return fmt.Errorf("storage: page %d: %d hole bytes recorded, %d in the record area", p.ID, holes, freeStart-pageHeaderSize-held)
	}
	return nil
}

func (p *Page) slotDirStart() int { return len(p.buf) - p.NumSlots()*slotSize }

func (p *Page) slotOffset(i int) int {
	base := len(p.buf) - (i+1)*slotSize
	return int(binary.LittleEndian.Uint16(p.buf[base:]))
}

func (p *Page) slotLength(i int) int {
	base := len(p.buf) - (i+1)*slotSize
	return int(binary.LittleEndian.Uint16(p.buf[base+2:]))
}

func (p *Page) setSlot(i int, off, ln uint16) {
	base := len(p.buf) - (i+1)*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:], off)
	binary.LittleEndian.PutUint16(p.buf[base+2:], ln)
}

func (p *Page) u16(off int) uint16       { return binary.LittleEndian.Uint16(p.buf[off:]) }
func (p *Page) setU16(off int, v uint16) { binary.LittleEndian.PutUint16(p.buf[off:], v) }
func (p *Page) u32(off int) uint32       { return binary.LittleEndian.Uint32(p.buf[off:]) }
func (p *Page) setU32(off int, v uint32) { binary.LittleEndian.PutUint32(p.buf[off:], v) }

// MaxRecordSize returns the largest record a freshly formatted page of the
// given block size can hold.
func MaxRecordSize(blockSize int) int {
	return blockSize - pageHeaderSize - slotSize
}
