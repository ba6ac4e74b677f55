package exec

import (
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
//   - NextBatch fills b from the front with at most len(b.Rows) rows and
//     returns the count. n == 0 with a nil error means the stream is
//     exhausted, and stays so; NextBatch never returns 0 mid-stream — a
//     filtering operator keeps pulling until one row survives or its input
//     ends. On error n is 0 and the batch's contents are undefined. Rows
//     stream by reference: consumers must not mutate a row's Vars map.
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

// BatchCapacity is the row-vector size of the batches the executor drains:
// large enough to amortize dispatch, small enough that a batch of row
// headers stays cache-friendly.
const BatchCapacity = 1024

// RowBatch is a reusable row vector. Rows[0:n] are valid after a NextBatch
// call that returned n; the producer overwrites them on the next call, so
// consumers that retain rows must copy the slice headers out first (the row
// Vars maps themselves are shared by reference).
type RowBatch struct {
	Rows []algebra.Row
}

func newRowBatch(n int) *RowBatch { return &RowBatch{Rows: make([]algebra.Row, n)} }

// sized reslices b to n rows, growing its storage when needed, and returns
// it — the sub-batch a consumer hands a producer when it wants only n rows.
func (b *RowBatch) sized(n int) *RowBatch {
	if cap(b.Rows) < n {
		b.Rows = make([]algebra.Row, n)
	}
	b.Rows = b.Rows[:n]
	return b
}

// Cursor is the one row-at-a-time view of a compiled plan, for callers that
// consume single rows. Underneath it pulls BatchCapacity-row batches from
// the root operator and hands their rows out in order.
type Cursor struct {
	root Operator
	hdr  optimizer.Header
	buf  RowBatch
	n, i int
}

// Open opens the pipeline; call it once before Next.
func (c *Cursor) Open() error { return c.root.Open() }

// Next returns the next row and ok=true, or ok=false once the stream is
// exhausted (and on every later call). The caller closes the cursor after
// an error.
func (c *Cursor) Next() (algebra.Row, bool, error) {
	for c.i >= c.n {
		n, err := c.root.NextBatch(c.buf.sized(BatchCapacity))
		if err != nil || n == 0 {
			return algebra.Row{}, false, err
		}
		c.n, c.i = n, 0
	}
	row := c.buf.Rows[c.i]
	c.i++
	return row, true, nil
}

// Close releases the pipeline; it is idempotent.
func (c *Cursor) Close() error { return c.root.Close() }

// Header is the collection shape the cursor's rows would have if
// materialized.
func (c *Cursor) Header() optimizer.Header { return c.hdr }
