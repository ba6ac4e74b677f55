package storage

import (
	"bytes"
	"errors"
	"testing"
)

// TestInsertNarrowGapWithHoles reproduces a page state seen under
// concurrent writers: a nearly full page whose gap before the slot
// directory is narrower than a slot entry while deletes and shrinks have
// left holes. The room after compaction is the gap less one slot entry
// plus the holes — here 2 − 4 + 21 = 19 bytes — so a 21-byte insert must
// be refused. Counting a negative gap as zero promised 21 bytes, and the
// compacted record then ran into its own new slot entry.
func TestInsertNarrowGapWithHoles(t *testing.T) {
	p := NewPage(1, make([]byte, 4096))
	p.InitHeap(PageKindHeap)
	model := map[SlotID][]byte{}
	insert := func(n int, fill byte) SlotID {
		rec := bytes.Repeat([]byte{fill}, n)
		s, err := p.Insert(rec)
		if err != nil {
			t.Fatalf("setup insert of %d bytes: %v", n, err)
		}
		model[s] = rec
		return s
	}
	// 71 records of 53 bytes and one of 27 fill [16, 3806); the directory
	// of 72 slots starts at 3808.
	var first SlotID
	for i := 0; i < 71; i++ {
		s := insert(53, byte(i+1))
		if i == 0 {
			first = s
		}
	}
	insert(27, 0xEE)
	// Shrinking one record in place leaves a 21-byte hole, no tombstone.
	shrunk := bytes.Repeat([]byte{0x11}, 32)
	if err := p.Update(first, shrunk); err != nil {
		t.Fatal(err)
	}
	model[first] = shrunk
	if fs, slots, holes := int(p.u16(offFreeStart)), p.NumSlots(), int(p.u16(offFreeBytes)); fs != 3806 || slots != 72 || holes != 21 {
		t.Fatalf("pre-state freeStart=%d slots=%d holes=%d, want 3806/72/21", fs, slots, holes)
	}
	if got := p.FreeSpaceAfterCompaction(); got != 19 {
		t.Errorf("FreeSpaceAfterCompaction = %d, want 19", got)
	}

	rec := bytes.Repeat([]byte{0xAA}, 21)
	s, err := p.Insert(rec)
	switch {
	case errors.Is(err, ErrPageFull):
	case err != nil:
		t.Fatal(err)
	default:
		model[s] = rec
	}
	checkPage(t, p, model)
}

// checkPage fails the test when the page breaks a layout invariant or a
// live slot does not read back its model value.
func checkPage(t *testing.T, p *Page, model map[SlotID][]byte) {
	t.Helper()
	if err := p.CheckLayout(); err != nil {
		t.Fatal(err)
	}
	live := 0
	for s, want := range model {
		got, err := p.Get(s)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("slot %d reads %x, %v; want %x", s, got, err, want)
		}
		live++
	}
	if n := p.LiveRecords(); n != live {
		t.Fatalf("page holds %d live records, model %d", n, live)
	}
}

// FuzzPage runs random Insert/Update/Delete/Compact sequences on a small
// page against a map model, checking the layout invariants and every live
// slot's contents after each operation. Each operation takes three input
// bytes: the operation, a slot choice and a record length.
func FuzzPage(f *testing.F) {
	f.Add([]byte{0, 0, 40, 0, 0, 40, 0, 0, 40, 2, 0, 0, 0, 0, 30, 1, 1, 60, 3, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 0, 37, 0, 0, 29, 2, 1, 0, 1, 0, 11}, 8))
	// Five inserts leave a 3-byte gap; an empty record then still needs
	// its 4-byte slot entry.
	f.Add([]byte("00800B00700 00X00000000000000\x00"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := NewPage(1, make([]byte, 256))
		p.InitHeap(PageKindHeap)
		model := map[SlotID][]byte{}
		var fill byte
		for i := 0; i+2 < len(ops); i += 3 {
			op, pick, n := ops[i]%4, int(ops[i+1]), int(ops[i+2]%80)
			fill++
			rec := bytes.Repeat([]byte{fill}, n)
			switch op {
			case 0:
				s, err := p.Insert(rec)
				if err == nil {
					model[s] = rec
				} else if !errors.Is(err, ErrPageFull) {
					t.Fatal(err)
				}
			case 1, 2:
				if p.NumSlots() == 0 {
					continue
				}
				s := SlotID(pick % p.NumSlots())
				_, live := model[s]
				var err error
				if op == 1 {
					if err = p.Update(s, rec); err == nil {
						model[s] = rec
					}
				} else if err = p.Delete(s); err == nil {
					delete(model, s)
				}
				switch {
				case err == nil:
					if !live {
						t.Fatalf("op %d on tombstoned slot %d succeeded", op, s)
					}
				case errors.Is(err, ErrRecordGone) && !live:
				case errors.Is(err, ErrPageFull) && op == 1 && live:
				default:
					t.Fatalf("op %d on slot %d (live=%v): %v", op, s, live, err)
				}
			case 3:
				p.Compact()
			}
			checkPage(t, p, model)
		}
	})
}
