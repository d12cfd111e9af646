// Package a seeds lockorder violations: cell is pooled (a slice element
// with a mutex), so its locks are shard locks and must never nest outside
// a designated helper.
package a

import "sync"

type cell struct {
	mu sync.Mutex
	n  int
}

type pool struct {
	cells []cell
}

// nestedBad holds one shard lock while taking a second.
func (p *pool) nestedBad(i, j int) {
	p.cells[i].mu.Lock()
	p.cells[j].mu.Lock() // want `shard lock acquired while another shard lock is held`
	p.cells[j].n++
	p.cells[j].mu.Unlock()
	p.cells[i].mu.Unlock()
}

// loopBad acquires in a loop without releasing in the same iteration, so
// the next iteration nests.
func (p *pool) loopBad() {
	for i := range p.cells {
		p.cells[i].mu.Lock() // want `acquired in a loop without an unlock`
	}
}

// sequentialGood locks one shard at a time.
func (p *pool) sequentialGood(i, j int) {
	p.cells[i].mu.Lock()
	p.cells[i].n++
	p.cells[i].mu.Unlock()
	p.cells[j].mu.Lock()
	p.cells[j].n++
	p.cells[j].mu.Unlock()
}

// loopGood releases within each iteration.
func (p *pool) loopGood() {
	for i := range p.cells {
		p.cells[i].mu.Lock()
		p.cells[i].n++
		p.cells[i].mu.Unlock()
	}
}

// lockAll is the designated ascending-order helper.
//
//nephele:lockorder-helper — ascending by construction.
func (p *pool) lockAll() {
	for i := range p.cells {
		p.cells[i].mu.Lock()
	}
}

// unlockAll only releases, which is always safe.
func (p *pool) unlockAll() {
	for i := range p.cells {
		p.cells[i].mu.Unlock()
	}
}

// waived keeps a deliberate nested acquisition with a justification.
func (p *pool) waived(i, j int) {
	p.cells[i].mu.Lock()
	p.cells[j].mu.Lock() //nephele:lockorder-ok — caller guarantees i < j
	p.cells[j].mu.Unlock()
	p.cells[i].mu.Unlock()
}

// server is a singleton (never pooled in a slice): nesting two distinct
// servers' locks is outside this analyzer's scope.
type server struct {
	mu sync.Mutex
}

func nestSingletons(a, b *server) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}
