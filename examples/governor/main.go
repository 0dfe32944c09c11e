// Resource governing (Example 5, §3 of the paper): a Timer-driven watchdog
// rule iterates over all executing statements and cancels any that exceed
// a runtime budget — a server-side action no client-side monitoring tool
// can take.
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
	mustExec(setup, "CREATE TABLE jobs (id INT PRIMARY KEY, state VARCHAR)")
	for i := 1; i <= 500; i++ {
		mustExec(setup, fmt.Sprintf("INSERT INTO jobs VALUES (%d, 'queued')", i))
	}

	// Watchdog: every 50ms, look at all active Query objects; cancel any
	// running longer than 250ms, and notify the DBA. A .rules file cannot
	// arm a timer, so the program does.
	src, err := rulesets.FS.ReadFile("governor.rules")
	if err != nil {
		log.Fatal(err)
	}
	if err := db.LoadRuleSet(string(src)); err != nil {
		log.Fatal(err)
	}
	if err := db.SetTimer("watchdog", 50*time.Millisecond, -1); err != nil {
		log.Fatal(err)
	}

	// The "runaway": a statement stuck behind a long transaction's lock.
	// (Reads are MVCC snapshot reads and never wait, and writers lock
	// rows, so the runaway is a second writer of the row the first writer
	// holds.)
	blocker := db.Session("batch", "bulk-update")
	mustExec(blocker, "BEGIN")
	mustExec(blocker, "UPDATE jobs SET state = 'running' WHERE id = 1")

	victim := db.Session("analyst", "dashboard")
	start := time.Now()
	_, err = victim.Exec("UPDATE jobs SET state = 'retried' WHERE id = 1", nil)
	elapsed := time.Since(start)
	mustExec(blocker, "COMMIT")

	if err == nil {
		log.Fatal("query survived (governor too slow?)")
	}
	fmt.Printf("runaway query cancelled by the governor after %v: %v\n", elapsed.Round(time.Millisecond), err)
	db.Flush(2 * time.Second) // actions run async; quiesce before reading
	sent := db.Monitor().Mailer().(*sqlcm.MemMailer).Sent()
	for _, m := range sent {
		fmt.Printf("mail to %s: %s\n", m.Addr, m.Body)
	}
	if len(sent) != 1 {
		log.Fatalf("governor sent %d mails, want 1", len(sent))
	}
}

func mustExec(sess *sqlcm.Session, sql string) {
	if _, err := sess.Exec(sql, nil); err != nil {
		log.Fatalf("%s: %v", sql, err)
	}
}
