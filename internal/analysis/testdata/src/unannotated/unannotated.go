// Package unannotated seeds a mutex field without a //sqlcm:lock
// annotation: the field itself is flagged, and every lock site on it is
// unresolvable.
package unannotated

import "sync"

type cache struct {
	mu sync.Mutex
	m  map[string]string
}

func (c *cache) get(k string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}
