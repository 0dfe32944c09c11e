package main

import "testing"

// TestExample runs the example; main exits through log.Fatal when its
// headline result is missing.
func TestExample(t *testing.T) { main() }
