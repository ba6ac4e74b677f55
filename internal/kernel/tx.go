package kernel

import (
	"errors"
	"fmt"

	"mood/internal/expr"
	"mood/internal/lock"
	"mood/internal/object"
	"mood/internal/sql"
	"mood/internal/storage"
	"mood/internal/wal"
)

// Transactions. ESM gives MOOD "controlling data access and concurrency"
// and "backup and recovery of data"; the kernel surfaces both as
// transactions: strict two-phase locking on objects and class extents, a
// begin/commit/abort record stream in the WAL, and logical undo of every
// object mutation on abort. Page-level physical redo/undo (crash recovery)
// is exercised separately in internal/wal.
//
// Every shard has its own WAL; a single store is a one-shard database. A
// transaction begins on a shard's log lazily, at its first mutation routed
// there, and commits by forcing each touched log in turn — a transaction whose writes stay on
// one shard (the common case under OID routing) costs exactly one log
// force, which is why N shards sustain N times the commit throughput of one
// serialized fsync stream. Cross-shard transactions force their logs in
// begin order; there is no two-phase commit between shards, so a crash
// between forces can durably commit a prefix of the shards (the per-shard
// recovery contract in DESIGN.md spells this out). Group commit
// (Options.GroupCommit) does not change this contract: each per-shard force
// still blocks until that shard's leader has made the commit record
// durable, so the begin-order sequence of force *completions* — and with it
// the prefix-commit guarantee — is exactly as without batching. What
// changes is only that each force may be served by another session's
// leader, amortizing the fsync across the commit window; a multi-shard
// commit therefore waits on up to len(began) windows, one per touched
// shard, in order.

// ErrTxDone is returned when a finished transaction is reused.
var ErrTxDone = errors.New("kernel: transaction already committed or aborted")

// undoOp reverses one object mutation.
type undoOp struct {
	kind  byte // 'c' created, 'u' updated, 'd' deleted
	oid   storage.OID
	class string
	old   object.Value // prior value for 'u' and 'd'
}

// Tx is one kernel transaction.
type Tx struct {
	db     *DB
	lockID lock.TxID
	// ids maps shard -> that shard's WAL transaction id, populated lazily
	// at the first mutation routed to the shard; began records the shards
	// in begin order so commit forces deterministically.
	ids   map[int]wal.TxID
	began []int
	undo  []undoOp
	ws    *writeSet // pre-images captured for snapshot readers
	done  bool
}

// Begin starts a transaction. A single store is a one-shard database here:
// lock ids come from a kernel-wide counter, since no one WAL owns the id
// space, and the transaction begins on a shard's WAL lazily, at its first
// mutation routed there.
func (db *DB) Begin() *Tx {
	return &Tx{
		db:     db,
		lockID: lock.TxID(db.txSeq.Add(1)),
		ids:    make(map[int]wal.TxID),
		ws:     newWriteSet(),
	}
}

func (tx *Tx) check() error {
	if tx.done {
		return ErrTxDone
	}
	return nil
}

// lockObject takes IX on the class extent and X on the object.
func (tx *Tx) lockObject(class string, oid storage.OID, mode lock.Mode) error {
	intention := lock.ModeIX
	if mode == lock.ModeS {
		intention = lock.ModeIS
	}
	if err := tx.db.Locks.Acquire(tx.lockID, lock.FileResource("extent."+class), intention); err != nil {
		return err
	}
	return tx.db.Locks.Acquire(tx.lockID, lock.ObjectResource(oid), mode)
}

// logMutation appends a marker update record so the transaction's activity
// is visible in the durable log (logical operations carry no page images;
// physical page logging lives below the store). The record goes to the WAL
// of the shard that owns the mutated object, beginning the transaction
// there on first touch.
func (tx *Tx) logMutation(oid storage.OID) error {
	sh := oid.Shard()
	log := tx.db.Shards[sh].Log
	id, ok := tx.ids[sh]
	if !ok {
		id = log.Begin()
		tx.ids[sh] = id
		tx.began = append(tx.began, sh)
	}
	_, err := log.Update(id, oid.Page(), 0, nil, nil)
	return err
}

// Create inserts a new object of the class under this transaction.
func (tx *Tx) Create(class string, v object.Value) (storage.OID, error) {
	if err := tx.check(); err != nil {
		return storage.NilOID, err
	}
	if err := tx.db.Locks.Acquire(tx.lockID, lock.FileResource("extent."+class), lock.ModeIX); err != nil {
		return storage.NilOID, err
	}
	oid, err := tx.db.Cat.CreateObject(class, v)
	if err != nil {
		return storage.NilOID, err
	}
	// The pre-image of a create is "did not exist": snapshots begun before
	// this transaction commits must not see the object.
	tx.db.vs.capture(tx.ws, oid, class, object.Null, true)
	if err := tx.db.Locks.Acquire(tx.lockID, lock.ObjectResource(oid), lock.ModeX); err != nil {
		return storage.NilOID, err
	}
	if err := tx.logMutation(oid); err != nil {
		return storage.NilOID, err
	}
	tx.undo = append(tx.undo, undoOp{kind: 'c', oid: oid, class: class})
	return oid, nil
}

// Get reads an object under a shared lock.
func (tx *Tx) Get(oid storage.OID) (object.Value, string, error) {
	return tx.read(oid, lock.ModeS)
}

// read reads an object under a lock of the given mode. UPDATE reads its
// targets under X straight away: two statements updating one object then
// queue behind each other instead of deadlocking on an S-to-X upgrade.
func (tx *Tx) read(oid storage.OID, mode lock.Mode) (object.Value, string, error) {
	if err := tx.check(); err != nil {
		return object.Null, "", err
	}
	_, class, err := tx.db.Cat.GetObject(oid)
	if err != nil {
		return object.Null, "", err
	}
	if err := tx.lockObject(class, oid, mode); err != nil {
		return object.Null, "", err
	}
	return tx.db.Cat.GetObject(oid)
}

// Update replaces an object's value under this transaction.
func (tx *Tx) Update(oid storage.OID, v object.Value) error {
	if err := tx.check(); err != nil {
		return err
	}
	old, class, err := tx.db.Cat.GetObject(oid)
	if err != nil {
		return err
	}
	if err := tx.lockObject(class, oid, lock.ModeX); err != nil {
		return err
	}
	tx.db.vs.capture(tx.ws, oid, class, old, false)
	if err := tx.db.Cat.UpdateObject(oid, v); err != nil {
		return err
	}
	if err := tx.logMutation(oid); err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoOp{kind: 'u', oid: oid, class: class, old: old})
	return nil
}

// Delete removes an object under this transaction.
func (tx *Tx) Delete(oid storage.OID) error {
	if err := tx.check(); err != nil {
		return err
	}
	old, class, err := tx.db.Cat.GetObject(oid)
	if err != nil {
		return err
	}
	if err := tx.lockObject(class, oid, lock.ModeX); err != nil {
		return err
	}
	tx.db.vs.capture(tx.ws, oid, class, old, false)
	if err := tx.db.Cat.DeleteObject(oid); err != nil {
		return err
	}
	if err := tx.logMutation(oid); err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoOp{kind: 'd', oid: oid, class: class, old: old})
	return nil
}

// Commit makes the transaction's effects durable (the commit record of
// every touched shard's WAL is forced, in begin order) and releases its
// locks. A read-only transaction touches no log and forces nothing.
func (tx *Tx) Commit() error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.done = true
	defer tx.db.Locks.ReleaseAll(tx.lockID)
	for _, sh := range tx.began {
		if err := tx.db.Shards[sh].Log.Commit(tx.ids[sh]); err != nil {
			return err
		}
	}
	// Only now may snapshot pre-images be stamped committed: an epoch
	// advance before the force would let a snapshot observe a commit that a
	// crash could still revoke.
	tx.db.vs.commit(tx.ws)
	return nil
}

// ExecuteInTx interprets one MOODSQL statement under an open transaction:
// NEW/UPDATE/DELETE route through the transaction's locking, logging and
// undo machinery (nothing is durable until Commit), SELECT and EXPLAIN run
// through the ordinary read path, and DDL is rejected — schema changes are
// autocommit-only. The moodsql shell's \begin mode drives sessions through
// this entry point.
func (db *DB) ExecuteInTx(tx *Tx, statement string) (*Result, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	st, err := sql.Parse(statement)
	if err != nil {
		return nil, err
	}
	switch n := st.(type) {
	case *sql.Select:
		return db.execSelect(n)
	case *sql.Explain:
		return db.execExplain(n)
	case *sql.NewObject, *sql.Update, *sql.Delete:
		return db.execDML(tx, st)
	}
	return nil, fmt.Errorf("kernel: %T not allowed inside a transaction (DDL is autocommit-only)", st)
}

// autocommit runs one NEW/UPDATE/DELETE statement as a transaction of its
// own, so it takes part in strict two-phase locking like any other writer:
// it waits for a concurrent transaction's locks on the objects it writes,
// so it neither computes from nor overwrites that transaction's
// uncommitted values. (Target selection scans without locks, as it does
// inside a transaction.) Any error, a deadlock included, aborts the whole
// statement and is returned.
func (db *DB) autocommit(st sql.Statement) (*Result, error) {
	tx := db.Begin()
	res, err := db.execDML(tx, st)
	if err != nil {
		if aerr := tx.Abort(); aerr != nil {
			return nil, fmt.Errorf("%w (abort: %v)", err, aerr)
		}
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return res, nil
}

// execDML interprets a NEW, UPDATE or DELETE statement under tx.
func (db *DB) execDML(tx *Tx, st sql.Statement) (*Result, error) {
	switch n := st.(type) {
	case *sql.NewObject:
		tuple, err := db.evalNewObject(n)
		if err != nil {
			return nil, err
		}
		oid, err := tx.Create(n.Class, tuple)
		if err != nil {
			return nil, err
		}
		res := message("created %s", oid)
		res.OIDs = []storage.OID{oid}
		return res, nil
	case *sql.Update:
		targets, err := db.matchTargets(n.From, n.Where)
		if err != nil {
			return nil, err
		}
		updated := 0
		for _, oid := range targets {
			old, class, err := tx.read(oid, lock.ModeX)
			if err != nil {
				return nil, err
			}
			// The target was chosen on an unlocked read, perhaps of a value
			// another transaction has since rolled back: WHERE decides on
			// the value read under X.
			if !db.matches(n.From, n.Where, oid, old) {
				continue
			}
			// GetObject may return the cache's copy, whose backing storage
			// is shared with every other reader; mutate a private clone.
			v := old.Clone()
			env := &expr.Env{
				Vars:    map[string]object.Value{n.From.Var: v},
				OIDs:    map[string]storage.OID{n.From.Var: oid},
				Resolve: db.Cat.Resolver(),
				Invoke:  db.Alg.Invoke,
			}
			for _, set := range n.Sets {
				nv, err := set.Value.Eval(env)
				if err != nil {
					return nil, err
				}
				at, err := db.Cat.AttributeType(class, set.Attr)
				if err != nil {
					return nil, err
				}
				cast, err := expr.Cast(nv, at)
				if err != nil {
					return nil, err
				}
				v.SetField(set.Attr, cast)
			}
			if err := tx.Update(oid, v); err != nil {
				return nil, err
			}
			updated++
		}
		return message("%d object(s) updated", updated), nil
	case *sql.Delete:
		targets, err := db.matchTargets(n.From, n.Where)
		if err != nil {
			return nil, err
		}
		deleted := 0
		for _, oid := range targets {
			old, _, err := tx.read(oid, lock.ModeX)
			if err != nil {
				return nil, err
			}
			if !db.matches(n.From, n.Where, oid, old) {
				continue
			}
			if err := tx.Delete(oid); err != nil {
				return nil, err
			}
			deleted++
		}
		return message("%d object(s) deleted", deleted), nil
	}
	return nil, fmt.Errorf("kernel: %T is not a data manipulation statement", st)
}

// Abort rolls back every mutation (logical undo, newest first), logs the
// abort on every touched shard, and releases the locks.
func (tx *Tx) Abort() error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.done = true
	defer tx.db.Locks.ReleaseAll(tx.lockID)
	resurrected := make(map[storage.OID]storage.OID)
	for i := len(tx.undo) - 1; i >= 0; i-- {
		op := tx.undo[i]
		oid := op.oid
		if r, ok := resurrected[oid]; ok {
			// The transaction deleted the object after this op; the undo
			// of that delete resurrected it as r.
			oid = r
		}
		var err error
		switch op.kind {
		case 'c':
			err = tx.db.Cat.DeleteObject(oid)
			// Created and deleted by this transaction: it never existed.
			delete(resurrected, op.oid)
		case 'u':
			err = tx.db.Cat.UpdateObject(oid, op.old)
		case 'd':
			// The original OID cannot be resurrected (slots are reused);
			// reinsert the value as a new object of the same class.
			var noid storage.OID
			noid, err = tx.db.Cat.CreateObject(op.class, op.old)
			if err == nil {
				resurrected[op.oid] = noid
			}
		}
		if err != nil {
			return fmt.Errorf("kernel: undo failed (op %c on %s): %w", op.kind, op.oid, err)
		}
	}
	tx.db.vs.abort(tx.ws, resurrected)
	for _, sh := range tx.began {
		if err := tx.db.Shards[sh].Log.Abort(tx.ids[sh], nil); err != nil {
			return err
		}
	}
	return nil
}
