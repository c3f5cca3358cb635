package comm

import "sync"

type lockedTable struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	dirty bool
}

func (t *lockedTable) good() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dirty = true
}

func (t *lockedTable) goodRead() bool {
	t.rw.RLock()
	defer t.rw.RUnlock()
	return t.dirty
}

func (t *lockedTable) goodInline() {
	t.mu.Lock()
	t.dirty = true
	t.mu.Unlock()
}

func (t *lockedTable) leak() {
	t.mu.Lock() // want lockdiscipline "t.mu.Lock() without a matching Unlock"
	t.dirty = true
}

func (t *lockedTable) leakRead() bool {
	t.rw.RLock() // want lockdiscipline "t.rw.RLock() without a matching RUnlock"
	return t.dirty
}

func discard(s *Slot) {
	s.Close() // want lockdiscipline "error returned by Slot.Close is discarded"
}

func handled(s *Slot) error {
	if err := s.Close(); err != nil {
		return err
	}
	_ = s.Close()   // explicit discard documents intent: accepted
	defer s.Close() // deferred cleanup is conventionally best-effort: accepted
	return nil
}
