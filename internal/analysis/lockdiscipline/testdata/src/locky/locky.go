// Package locky is a lockdiscipline fixture; analysistest presents it
// under a virtual import path inside internal/storage.
package locky

import "sync"

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]string
}

// Lock/Unlock pairing violations.

func lockNoUnlock(s *store) string {
	s.mu.Lock() // want `s\.mu\.Lock\(\) has no matching s\.mu\.Unlock\(\) in lockNoUnlock`
	return s.data["k"]
}

func rlockWrongUnlock(s *store) string {
	s.rw.RLock() // want `s\.rw\.RLock\(\) has no matching s\.rw\.RUnlock\(\) in rlockWrongUnlock`
	defer s.rw.Unlock()
	return s.data["k"]
}

// Allowed pairings.

func deferred(s *store) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data["k"]
}

func direct(s *store) {
	s.mu.Lock()
	s.data["k"] = "v"
	s.mu.Unlock()
}

func deferredInClosure(s *store) string {
	s.mu.Lock()
	defer func() { s.mu.Unlock() }()
	return s.data["k"]
}

func readersWriter(s *store) string {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.data["k"]
}

// The escape hatch: a deliberate cross-function lock handoff.

func acquireForCaller(s *store) {
	s.mu.Lock() //gdbvet:allow(lockdiscipline): lock handed to the caller, released by releaseForCaller
}

func releaseForCaller(s *store) {
	s.mu.Unlock()
}
