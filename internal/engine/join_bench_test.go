package engine

import (
	"fmt"
	"testing"
)

// BenchmarkIndexNLJoin is the one statement shape whose hot loop is the
// index-NL probe: 200 outer rows, each seeking the inner table's primary
// key.
func BenchmarkIndexNLJoin(b *testing.B) {
	e, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession("a", "b")
	exec := func(sql string) *Result {
		res, err := s.Exec(sql, nil)
		if err != nil {
			b.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	exec("CREATE TABLE inner_t (id INT PRIMARY KEY, v INT)")
	exec("CREATE TABLE outer_t (id INT PRIMARY KEY, ref INT)")
	exec("BEGIN")
	for i := 0; i < 2000; i++ {
		exec(fmt.Sprintf("INSERT INTO inner_t VALUES (%d, %d)", i, i))
	}
	for i := 0; i < 200; i++ {
		exec(fmt.Sprintf("INSERT INTO outer_t VALUES (%d, %d)", i, (i*7)%2000))
	}
	exec("COMMIT")
	const q = "SELECT o.id, i.v FROM outer_t o JOIN inner_t i ON o.ref = i.id"
	if n := len(exec(q).Rows); n != 200 {
		b.Fatalf("join rows: %d", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		exec(q)
	}
}
