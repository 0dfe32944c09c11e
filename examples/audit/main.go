// Usage auditing (Example 4, §3 of the paper): summarize query templates
// per application — frequency, average and maximum duration — collected
// synchronously with execution and persisted asynchronously by a timer
// (the paper's "24 hour period" shortened to seconds for the demo).
package main

import (
	"fmt"
	"log"
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
	mustExec(setup, "CREATE TABLE docs (id INT PRIMARY KEY, owner VARCHAR, bytes INT)")
	for i := 1; i <= 2000; i++ {
		mustExec(setup, fmt.Sprintf("INSERT INTO docs VALUES (%d, 'u%d', %d)", i, i%13, i*17))
	}

	// The Usage LAT summarizes usage per (application, template); on each
	// timer alarm the flush rule persists the summary and resets the
	// window. A .rules file cannot arm a timer, so the program does.
	src, err := rulesets.FS.ReadFile("audit.rules")
	if err != nil {
		log.Fatal(err)
	}
	if err := db.LoadRuleSet(string(src)); err != nil {
		log.Fatal(err)
	}
	if err := db.SetTimer("audit", 400*time.Millisecond, 2); err != nil {
		log.Fatal(err)
	}

	// Two applications with different query habits.
	web := db.Session("svc", "webapp")
	batch := db.Session("svc", "batch")
	deadline := time.Now().Add(900 * time.Millisecond)
	i := 0
	for time.Now().Before(deadline) {
		i++
		mustExec(web, fmt.Sprintf("SELECT bytes FROM docs WHERE id = %d", i%2000+1))
		if i%25 == 0 {
			mustExec(batch, "SELECT owner, COUNT(*), SUM(bytes) FROM docs GROUP BY owner")
		}
	}
	time.Sleep(200 * time.Millisecond) // let the final timer window fire
	db.Flush(2 * time.Second)          // actions run async; quiesce before reading

	rows, err := db.ReadTable("usage_report")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("usage report (%d persisted window rows):\n", len(rows))
	apps := map[string]bool{}
	// Columns: Application, Logical_Signature, Freq, Avg_Dur, Max_Dur, Sample, sqlcm_ts.
	for _, r := range rows {
		fmt.Printf("  %-8s x%-5d avg=%8.1fus max=%8.1fus  %.50s\n",
			r[0].Str(), r[2].Int(), r[3].Float()*1e6, r[4].Float()*1e6, r[5].Str())
		apps[r[0].Str()] = true
	}
	if !apps["webapp"] || !apps["batch"] {
		log.Fatalf("usage_report lacks rows for webapp or batch (has %v)", apps)
	}
}

func mustExec(sess *sqlcm.Session, sql string) {
	if _, err := sess.Exec(sql, nil); err != nil {
		log.Fatalf("%s: %v", sql, err)
	}
}
