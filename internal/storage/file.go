package storage

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// FileID identifies a storage file (the persistent home of one class extent,
// index, or system structure).
type FileID uint16

// A File is an ESM-style storage file: a chain of slotted pages linked
// through their headers. As in ESM, the pages of a file are not guaranteed
// to be physically contiguous, which is why the paper treats a file scan as
// random access on ESM; the DiskSim accounts adjacency faithfully.
type File struct {
	ID        FileID
	Name      string
	firstPage PageID
	lastPage  PageID
	// numPages and numRecs change under the owning ObjectStore's lock but
	// are read without it (statistics collection sizes extents while
	// inserts, compaction and migration run), hence atomic.
	numPages atomic.Uint32
	numRecs  atomic.Uint32
	dirSlot  SlotID // slot of this file's directory record
	// pages caches the chain order of the file's data pages; it is valid
	// exactly when len(pages) == numPages (a file re-opened from its
	// directory record starts with a cold cache). Guarded by the owning
	// ObjectStore's lock; see ObjectStore.PageList.
	pages []PageID
}

// NumPages returns the number of data pages in the file — the paper's
// nbpages(C) when the file stores class C's extent.
func (f *File) NumPages() int { return int(f.numPages.Load()) }

// NumRecords returns the number of live records — the paper's |C|.
func (f *File) NumRecords() int { return int(f.numRecs.Load()) }

// FirstPage returns the first data page (0 if the file is empty).
func (f *File) FirstPage() PageID { return f.firstPage }

// FileManager maintains the directory of files on one disk. The directory
// lives in a dedicated meta page so that a manager re-opened over the same
// disk (crash simulation) recovers every file.
type FileManager struct {
	bp *BufferPool

	mu      sync.Mutex
	dirPage PageID
	files   map[FileID]*File
	byName  map[string]FileID
	nextID  FileID
}

const dirRecordFixed = 2 + 4 + 4 + 4 + 4 // id, first, last, npages, nrecs

// NewFileManager formats a fresh directory on the disk behind bp.
func NewFileManager(bp *BufferPool) (*FileManager, error) {
	pg, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	pg.InitHeap(PageKindMeta)
	id := pg.ID
	if err := bp.Unpin(id, true); err != nil {
		return nil, err
	}
	return &FileManager{
		bp:      bp,
		dirPage: id,
		files:   make(map[FileID]*File),
		byName:  make(map[string]FileID),
		nextID:  1,
	}, nil
}

// OpenFileManager reloads the directory previously created at dirPage.
func OpenFileManager(bp *BufferPool, dirPage PageID) (*FileManager, error) {
	fm := &FileManager{
		bp:      bp,
		dirPage: dirPage,
		files:   make(map[FileID]*File),
		byName:  make(map[string]FileID),
		nextID:  1,
	}
	pg, err := bp.Fetch(dirPage)
	if err != nil {
		return nil, err
	}
	pg.Slots(func(slot SlotID, rec []byte) bool {
		f := decodeDirRecord(rec)
		f.dirSlot = slot
		fm.files[f.ID] = f
		fm.byName[f.Name] = f.ID
		if f.ID >= fm.nextID {
			fm.nextID = f.ID + 1
		}
		return true
	})
	if err := bp.Unpin(dirPage, false); err != nil {
		return nil, err
	}
	return fm, nil
}

// DirPage returns the page holding the file directory; a database records it
// in its superblock so the manager can be re-opened.
func (fm *FileManager) DirPage() PageID { return fm.dirPage }

// CreateFile allocates a new, empty file with the given name.
func (fm *FileManager) CreateFile(name string) (*File, error) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if _, dup := fm.byName[name]; dup {
		return nil, fmt.Errorf("storage: file %q already exists", name)
	}
	// The OID file field is 12 bits; a wider id would alias the shard tag.
	if fm.nextID > maxFileID {
		return nil, fmt.Errorf("storage: file id space exhausted (max %d)", maxFileID)
	}
	f := &File{ID: fm.nextID, Name: name}
	fm.nextID++
	pg, err := fm.bp.Fetch(fm.dirPage)
	if err != nil {
		return nil, err
	}
	slot, err := pg.Insert(encodeDirRecord(f))
	if err != nil {
		fm.bp.Unpin(fm.dirPage, false)
		return nil, fmt.Errorf("storage: file directory full: %w", err)
	}
	f.dirSlot = slot
	if err := fm.bp.Unpin(fm.dirPage, true); err != nil {
		return nil, err
	}
	fm.files[f.ID] = f
	fm.byName[name] = f.ID
	return f, nil
}

// OpenFile returns the file with the given name.
func (fm *FileManager) OpenFile(name string) (*File, error) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	id, ok := fm.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchFile, name)
	}
	return fm.files[id], nil
}

// FileByID returns the file with the given id.
func (fm *FileManager) FileByID(id FileID) (*File, error) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	f, ok := fm.files[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchFile, id)
	}
	return f, nil
}

// DropFile frees every page of the file and removes it from the directory.
func (fm *FileManager) DropFile(name string) error {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	id, ok := fm.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchFile, name)
	}
	f := fm.files[id]
	// Free the data pages (and any overflow chains they point into are the
	// store's responsibility to have freed already).
	for pid := f.firstPage; pid != 0; {
		pg, err := fm.bp.Fetch(pid)
		if err != nil {
			return err
		}
		next := pg.NextPage()
		if err := fm.bp.Unpin(pid, false); err != nil {
			return err
		}
		fm.bp.Drop(pid)
		if err := fm.bp.Disk().FreePage(pid); err != nil {
			return err
		}
		pid = next
	}
	pg, err := fm.bp.Fetch(fm.dirPage)
	if err != nil {
		return err
	}
	if err := pg.Delete(f.dirSlot); err != nil {
		fm.bp.Unpin(fm.dirPage, false)
		return err
	}
	if err := fm.bp.Unpin(fm.dirPage, true); err != nil {
		return err
	}
	delete(fm.files, id)
	delete(fm.byName, name)
	return nil
}

// ReloadFile re-reads the file's directory record into the same File
// object and drops its page-chain cache. The kernel's reorganizer calls it
// after a WAL abort restored the on-disk directory underneath the in-memory
// metadata (an aborted migration may have appended pages whose links were
// undone on disk only).
func (fm *FileManager) ReloadFile(f *File) error {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	pg, err := fm.bp.Fetch(fm.dirPage)
	if err != nil {
		return err
	}
	rec, err := pg.Get(f.dirSlot)
	if err == nil {
		nf := decodeDirRecord(rec)
		f.firstPage, f.lastPage = nf.firstPage, nf.lastPage
		f.numPages.Store(nf.numPages.Load())
		f.numRecs.Store(nf.numRecs.Load())
		f.pages = nil
	}
	if uerr := fm.bp.Unpin(fm.dirPage, false); uerr != nil && err == nil {
		err = uerr
	}
	return err
}

// Files returns a snapshot of all files sorted by id.
func (fm *FileManager) Files() []*File {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	out := make([]*File, 0, len(fm.files))
	for _, f := range fm.files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// syncDir rewrites the file's directory record after a metadata change.
// Caller holds fm.mu or is otherwise single-threaded on f.
func (fm *FileManager) syncDir(f *File) error {
	pg, err := fm.bp.Fetch(fm.dirPage)
	if err != nil {
		return err
	}
	err = pg.Update(f.dirSlot, encodeDirRecord(f))
	if uerr := fm.bp.Unpin(fm.dirPage, err == nil); uerr != nil && err == nil {
		err = uerr
	}
	return err
}

func encodeDirRecord(f *File) []byte {
	rec := make([]byte, dirRecordFixed+len(f.Name))
	binary.LittleEndian.PutUint16(rec[0:], uint16(f.ID))
	binary.LittleEndian.PutUint32(rec[2:], uint32(f.firstPage))
	binary.LittleEndian.PutUint32(rec[6:], uint32(f.lastPage))
	binary.LittleEndian.PutUint32(rec[10:], f.numPages.Load())
	binary.LittleEndian.PutUint32(rec[14:], f.numRecs.Load())
	copy(rec[dirRecordFixed:], f.Name)
	return rec
}

func decodeDirRecord(rec []byte) *File {
	f := &File{
		ID:        FileID(binary.LittleEndian.Uint16(rec[0:])),
		firstPage: PageID(binary.LittleEndian.Uint32(rec[2:])),
		lastPage:  PageID(binary.LittleEndian.Uint32(rec[6:])),
		Name:      string(rec[dirRecordFixed:]),
	}
	f.numPages.Store(binary.LittleEndian.Uint32(rec[10:]))
	f.numRecs.Store(binary.LittleEndian.Uint32(rec[14:]))
	return f
}
