// Blocking hotspots (Example 2, §3 of the paper): track, per blocking
// statement, the total time it made other statements wait on locks —
// useful for finding lock hotspots caused by application design.
package main

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"sqlcm"
	"sqlcm/examples/rulesets"
)

func main() {
	db, err := sqlcm.Open(sqlcm.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	setup := db.Session("admin", "setup")
	mustExec(setup, "CREATE TABLE inventory (sku INT PRIMARY KEY, stock INT)")
	for i := 1; i <= 1000; i++ {
		mustExec(setup, fmt.Sprintf("INSERT INTO inventory VALUES (%d, %d)", i, i*3))
	}

	// Block_LAT holds blocking statements with their total inflicted delay
	// and how many waiters they held up: on every lock release that freed
	// waiters, the blocking rule charges each waiter's delay to the
	// blocking statement.
	src, err := rulesets.FS.ReadFile("blocking.rules")
	if err != nil {
		log.Fatal(err)
	}
	if err := db.LoadRuleSet(string(src)); err != nil {
		log.Fatal(err)
	}

	// Simulate an application with a long write transaction (the hotspot)
	// and several checkouts of the same SKU that pile up behind it. (Reads
	// are MVCC snapshot reads and never block, and writers lock rows, so
	// only writers of the same row contend.)
	writer := db.Session("batch", "nightly-job")
	mustExec(writer, "BEGIN")
	mustExec(writer, "UPDATE inventory SET stock = stock + 100 WHERE sku = 42")

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			checkout := db.Session(fmt.Sprintf("web-%d", i), "storefront")
			sql := fmt.Sprintf("UPDATE inventory SET stock = stock - %d WHERE sku = 42", i+1)
			if _, err := checkout.Exec(sql, nil); err != nil {
				log.Printf("checkout %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(300 * time.Millisecond) // the checkouts wait on the writer's row lock
	mustExec(writer, "COMMIT")
	wg.Wait()

	lt, _ := db.LAT("Block_LAT")
	fmt.Println("statements ranked by total blocking delay inflicted:")
	rows := lt.Rows()
	for _, row := range rows {
		fmt.Printf("  total=%6.0fms waiters=%d worst=%6.0fms  %.60s\n",
			row[1].Float()*1e3, row[2].Int(), row[3].Float()*1e3, row[0].Str())
	}
	if len(rows) == 0 || !strings.Contains(rows[0][0].Str(), "stock + 100") {
		log.Fatal("the nightly job's UPDATE does not head Block_LAT")
	}
}

func mustExec(sess *sqlcm.Session, sql string) {
	if _, err := sess.Exec(sql, nil); err != nil {
		log.Fatalf("%s: %v", sql, err)
	}
}
