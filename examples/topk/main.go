// Top-k most expensive queries (Example 3, §3 of the paper): a
// size-bounded, ordered LAT keeps exactly the k most expensive statements
// at all times; at the end of the observation window it is persisted to a
// table for SQL post-processing.
package main

import (
	"fmt"
	"log"
	"strings"

	"sqlcm"
	"sqlcm/examples/rulesets"
)

func main() {
	db, err := sqlcm.Open(sqlcm.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	sess := db.Session("app", "reporting")
	mustExec(sess, "CREATE TABLE events (id INT PRIMARY KEY, kind INT, payload VARCHAR)")
	for i := 1; i <= 3000; i++ {
		mustExec(sess, fmt.Sprintf("INSERT INTO events VALUES (%d, %d, 'payload-%d')", i, i%17, i))
	}

	// The TopQ LAT keeps only the 10 most expensive statement texts,
	// ordered by duration; cheaper rows are evicted automatically (§4.3).
	src, err := rulesets.FS.ReadFile("topk.rules")
	if err != nil {
		log.Fatal(err)
	}
	if err := db.LoadRuleSet(string(src)); err != nil {
		log.Fatal(err)
	}

	// The workload: lots of cheap point queries, a few expensive scans.
	for i := 1; i <= 500; i++ {
		mustExec(sess, fmt.Sprintf("SELECT payload FROM events WHERE id = %d", i))
	}
	for k := 0; k < 5; k++ {
		mustExec(sess, fmt.Sprintf("SELECT kind, COUNT(*) FROM events WHERE id > %d GROUP BY kind ORDER BY COUNT(*) DESC", k))
	}

	// Persist the result and post-process it with plain SQL.
	if err := db.PersistLAT("TopQ", "topq_report"); err != nil {
		log.Fatal(err)
	}
	res, err := sess.Exec("SELECT Query_Text, Duration, Runs FROM topq_report ORDER BY Duration DESC", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-10 most expensive statements:")
	scans := 0
	for i, row := range res.Rows {
		fmt.Printf("%2d. %8.3fms x%-4d %.60s\n",
			i+1, row[1].Float()*1e3, row[2].Int(), row[0].Str())
		if strings.Contains(row[0].Str(), "GROUP BY kind") {
			scans++
		}
	}
	if scans != 5 {
		log.Fatalf("topq_report holds %d of the 5 GROUP BY scans", scans)
	}
}

func mustExec(sess *sqlcm.Session, sql string) {
	if _, err := sess.Exec(sql, nil); err != nil {
		log.Fatalf("%s: %v", sql, err)
	}
}
