// Package workfix mimics the shape of the parallel-analyze worker
// pools in internal/symbolic and internal/core — a spawner that fans
// subtree tasks out to goroutines — but written the WRONG way: the
// goroutine bodies are function literals that allocate per task. With
// the package scoped into the workers set (as internal/symbolic and
// internal/core are), lucheck must flag every allocation. The real
// pools keep their goroutine bodies as method calls whose per-task
// state is claimed through an atomic counter and published under a
// mutex, which is why the repository itself stays clean. The unlocked
// write to p.next is a data race, which is the race detector's to
// report, not lucheck's: it stays silent here, as does the locked
// error publication below it.
package workfix

import "sync"

// SubtreePool fans n subtree eliminations out to worker goroutines.
type SubtreePool struct {
	mu   sync.Mutex
	err  error
	next int
}

// Run launches one goroutine per subtree task.
func (p *SubtreePool) Run(n int, task func(i int) error) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cols := make([]int32, 0, 8)   // want hot-alloc
			cols = append(cols, int32(i)) // want hot-alloc
			p.next = int(cols[0])
			if err := task(i); err != nil {
				p.mu.Lock()
				if p.err == nil {
					p.err = err
				}
				p.mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
}
