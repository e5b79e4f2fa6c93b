package obs

import (
	"io"
	"runtime"
	"sync"
)

// blockRecords is how many records one block holds: one Write of about
// 100 KB of events.jsonl or trace.json.
const blockRecords = 1024

// writeRecords writes records 0..n-1 to w in index order, record i being
// the bytes appendRecord(dst, i) appends to dst. appendRecord may be
// called from several goroutines at once, so it must only read shared
// state.
//
// Records are formatted in blocks of blockRecords on min(GOMAXPROCS,
// blocks) workers, the caller among them, so a one-block call starts no
// goroutine. Block b belongs to worker b mod workers. The caller formats
// its own blocks and writes every block, each as one Write, in index
// order, receiving the others' from their owners; so the bytes written are
// exactly those of formatting the records one at a time, whatever the
// worker count or scheduling. A worker formats into two buffers in turn,
// filling one while the caller writes the other, which bounds what a call
// holds to two blocks per worker however large n is.
//
// The first failed Write stops the call: its error is returned after
// every worker has exited, and nothing more is written.
func writeRecords(w io.Writer, n int, appendRecord func(dst []byte, i int) []byte) error {
	blocks := (n + blockRecords - 1) / blockRecords
	nw := min(runtime.GOMAXPROCS(0), blocks)
	if nw == 0 {
		return nil
	}
	var small [8]*blockWorker // room for the workers of up to 8 cores
	ws := idleWorkers.take(small[:0], nw)
	var wg sync.WaitGroup
	wg.Add(nw - 1)
	for k := 1; k < nw; k++ {
		go ws[k].run(k, nw, n, appendRecord, &wg)
	}
	var err error
	for b := 0; b < blocks && err == nil; b++ {
		wk := ws[b%nw]
		if b%nw == 0 {
			wk.buf[0] = appendBlock(wk.buf[0][:0], b, n, appendRecord)
			err = writeBlock(w, wk.buf[0])
			continue
		}
		j := <-wk.ready
		err = writeBlock(w, wk.buf[j])
		wk.free <- j
	}
	if err != nil {
		for _, wk := range ws[1:] {
			wk.free <- -1
		}
	}
	wg.Wait()
	idleWorkers.give(ws)
	return err
}

// blockWorker is one worker's state in writeRecords. Its two buffers pass
// between the worker and the caller by index: ready holds the ones
// formatted and not yet written, free the ones written, so each channel
// holds at most the two indices, and free also the stop mark -1.
type blockWorker struct {
	buf   [2][]byte
	ready chan int
	free  chan int
}

// workerPool keeps the workers no call is using, so their buffers serve
// later calls at the size they grew to. It holds at most as many workers
// as calls have used at once. A sync.Pool lost them to the collections
// between a benchmark unit's exports: regrowing the buffers cost a
// reality-obs unit of eight recorded runs about 80 allocations and 1.2 MB.
type workerPool struct {
	mu   sync.Mutex
	idle []*blockWorker
}

var idleWorkers workerPool

// take appends n workers to ws, idle ones first.
func (p *workerPool) take(ws []*blockWorker, n int) []*blockWorker {
	p.mu.Lock()
	k := max(len(p.idle)-n, 0)
	ws = append(ws, p.idle[k:]...)
	clear(p.idle[k:])
	p.idle = p.idle[:k]
	p.mu.Unlock()
	for len(ws) < n {
		wk := &blockWorker{ready: make(chan int, 2), free: make(chan int, 3)}
		wk.reset()
		ws = append(ws, wk)
	}
	return ws
}

// give returns workers that no goroutine uses any more, resetting them.
func (p *workerPool) give(ws []*blockWorker) {
	for _, wk := range ws {
		wk.reset()
	}
	p.mu.Lock()
	p.idle = append(p.idle, ws...)
	p.mu.Unlock()
}

// run formats blocks first, first+stride, … of n records, each into a
// free buffer, until they are done or the caller sends the stop mark.
func (wk *blockWorker) run(first, stride, n int, appendRecord func([]byte, int) []byte, wg *sync.WaitGroup) {
	defer wg.Done()
	for b := first; b*blockRecords < n; b += stride {
		j := <-wk.free
		if j < 0 {
			return
		}
		wk.buf[j] = appendBlock(wk.buf[j][:0], b, n, appendRecord)
		wk.ready <- j
	}
}

// reset puts both buffers back in free and empties ready, as a worker
// that has neither buffer in use; it runs only while no goroutine uses
// the worker.
func (wk *blockWorker) reset() {
	for len(wk.ready) > 0 {
		<-wk.ready
	}
	for len(wk.free) > 0 {
		<-wk.free
	}
	wk.free <- 0
	wk.free <- 1
}

// appendBlock appends block b's records, those of n with index in
// [b·blockRecords, (b+1)·blockRecords), to dst.
func appendBlock(dst []byte, b, n int, appendRecord func([]byte, int) []byte) []byte {
	for i := b * blockRecords; i < min(n, (b+1)*blockRecords); i++ {
		dst = appendRecord(dst, i)
	}
	return dst
}

// writeBlock writes one block; an empty block, as a run of contact_end
// events makes in trace.json, writes nothing.
func writeBlock(w io.Writer, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	n, err := w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return err
}
