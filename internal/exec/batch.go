package exec

import (
	"sync/atomic"

	"mood/internal/algebra"
	"mood/internal/optimizer"
)

// Operator is the physical-operator contract of the streaming executor: a
// pull-based (Volcano-style) iterator compiled from a Plan node that
// produces rows a batch at a time, so the per-row interface dispatch and
// (for the fused/compiled operators in stream.go) the predicate tree walk
// amortize across the batch — the paper's algebra is collection-at-a-time,
// and so is every operator here.
//
//   - Open acquires resources and, for pipeline breakers (sort, group,
//     dup-elim, the build sides of the joins), drains the blocking inputs.
//     Open is called exactly once, before the first NextBatch.
//   - NextBatch fills b from the front with at most b.Len() rows and
//     returns the count. n == 0 with a nil error means the stream is
//     exhausted, and stays so; NextBatch never returns 0 mid-stream — a
//     filtering operator keeps pulling until one row survives or its input
//     ends. On error n is 0 and the batch's contents are undefined. A row
//     is a vector of slots laid out by the plan's optimizer.Layout; an
//     operator writes every slot its plan node binds (its schema) in each
//     row it emits, and the other slots of the row hold whatever the batch
//     held before. Bindings are copied by value, so a consumer may rewrite
//     a slot of a row it was handed; the values the slots point into
//     (tuples, strings) are shared and must not be mutated.
//   - Close releases resources, recursively closing inputs. It is
//     idempotent and safe after a failed Open or mid-stream: a consumer that
//     stops early closes a half-drained pipeline, and the rest of the extent
//     is never read.
//
// The consumer sizes the batch, and a producer does no more work than the
// batch it was handed needs. Page reads therefore happen in the same order
// whatever the batch sizes: the traversal joins pull joinBatchRows driving
// rows per step, and the join-index probe pulls its right side one row per
// probe, so their extent reads interleave with their dereferences and index
// probes exactly as the paper's per-object traversals do.
type Operator interface {
	Open() error
	NextBatch(b *RowBatch) (int, error)
	Close() error
}

// BatchCapacity is the number of rows in the batches the executor drains:
// large enough to amortize per-row interface dispatch.
const BatchCapacity = 1024

// RowBatch is an arena of row vectors: row i is the width slots
// Slots[i*width : (i+1)*width], one algebra.Bound per variable of the
// plan's Layout. Rows 0..n-1 are valid after a NextBatch call that
// returned n; the producer overwrites them on the next call, so consumers
// that retain rows copy the slots out first. A row costs no allocation of
// its own: building one writes slots, and a join concatenates two rows by
// copying slots.
//
// The same type serves as a growable row buffer (a join's pending rows, a
// drained build side): add appends a row, reset empties it.
type RowBatch struct {
	Slots []algebra.Bound
	width int
}

func newRowBatch(n, width int) *RowBatch {
	return &RowBatch{Slots: make([]algebra.Bound, n*width), width: width}
}

// Len is the number of rows the batch holds.
func (b *RowBatch) Len() int { return len(b.Slots) / b.width }

// Row returns row i's slots.
func (b *RowBatch) Row(i int) []algebra.Bound {
	lo := i * b.width
	return b.Slots[lo : lo+b.width : lo+b.width]
}

// sized reslices b to n rows, growing its storage when needed, and returns
// it — the sub-batch a consumer hands a producer when it wants only n rows.
func (b *RowBatch) sized(n int) *RowBatch {
	if cap(b.Slots) < n*b.width {
		b.Slots = make([]algebra.Bound, n*b.width)
	}
	b.Slots = b.Slots[:n*b.width]
	return b
}

// tail makes b a view of src's rows from i on, for a producer to fill.
func (b *RowBatch) tail(src *RowBatch, i int) *RowBatch {
	b.width = src.width
	b.Slots = src.Slots[i*src.width:]
	return b
}

// add appends a row to a growable batch and returns it. The new row's
// slots hold whatever the storage held; the caller writes them.
func (b *RowBatch) add() []algebra.Bound {
	n := len(b.Slots)
	if n+b.width > cap(b.Slots) {
		grown := make([]algebra.Bound, n, 2*n+8*b.width)
		copy(grown, b.Slots)
		b.Slots = grown
	}
	b.Slots = b.Slots[:n+b.width]
	return b.Slots[n : n+b.width : n+b.width]
}

// drop removes the last row of a growable batch.
func (b *RowBatch) drop() { b.Slots = b.Slots[:len(b.Slots)-b.width] }

// reset empties a growable batch, keeping its storage.
func (b *RowBatch) reset() { b.Slots = b.Slots[:0] }

// spareBatch keeps one BatchCapacity-row batch between drains: at a few
// hundred bytes a row, a fresh one per drain would cost more to allocate
// and clear than small queries cost to run. A drain's build sides run
// before it takes its own batch, so one spare serves most queries; holding
// one, not a pool of them, keeps what an idle executor retains to a single
// batch.
var spareBatch atomic.Pointer[RowBatch]

// getBatch returns a batch of BatchCapacity rows of the width.
func getBatch(width int) *RowBatch {
	b := spareBatch.Swap(nil)
	if b == nil {
		b = &RowBatch{}
	}
	b.width = width
	return b.sized(BatchCapacity)
}

// putBatch offers back a batch whose first used rows were written. It
// clears them first: a kept batch must not keep the query's objects alive.
func putBatch(b *RowBatch, used int) {
	clear(b.Slots[:used*b.width])
	spareBatch.Store(b)
}

// Cursor is the one row-at-a-time view of a compiled plan, for callers that
// consume single rows. Underneath it pulls BatchCapacity-row batches from
// the root operator and hands their rows out in order, each converted to
// the map-shaped algebra.Row.
type Cursor struct {
	root *compiled
	buf  *RowBatch
	n, i int
}

// Open opens the pipeline; call it once before Next.
func (c *Cursor) Open() error { return c.root.op.Open() }

// Next returns the next row and ok=true, or ok=false once the stream is
// exhausted (and on every later call). The caller closes the cursor after
// an error.
func (c *Cursor) Next() (algebra.Row, bool, error) {
	for c.i >= c.n {
		if c.buf == nil {
			c.buf = newRowBatch(BatchCapacity, c.root.lay.Width())
		}
		n, err := c.root.op.NextBatch(c.buf)
		if err != nil || n == 0 {
			return algebra.Row{}, false, err
		}
		c.n, c.i = n, 0
	}
	row := c.root.toRow(c.buf.Row(c.i))
	c.i++
	return row, true, nil
}

// Close releases the pipeline; it is idempotent.
func (c *Cursor) Close() error { return c.root.op.Close() }

// Header is the collection shape the cursor's rows would have if
// materialized.
func (c *Cursor) Header() optimizer.Header { return c.root.hdr }
