// Outlier detection (Example 1, §3 of the paper): detect invocations of a
// stored procedure that run much slower (here 5x) than the average
// instance of the same template, using an aging average so the baseline
// tracks recent behaviour.
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

	sess := db.Session("app", "orders-service")
	mustExec(sess, "CREATE TABLE orders (id INT PRIMARY KEY, cust INT, total FLOAT)")
	for i := 1; i <= 5000; i++ {
		mustExec(sess, fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d.0)", i, i%100, i))
	}
	// The monitored stored procedure: its cost depends on the parameter.
	mustExec(sess, `CREATE PROCEDURE order_report (@lo INT, @hi INT) AS BEGIN
		SELECT COUNT(*), SUM(total) FROM orders WHERE id >= @lo AND id <= @hi;
	END`)

	// Duration_LAT from §4.3 of the paper, with an aging average: old
	// observations stop influencing the baseline after a minute. The
	// outlier rule is the paper's §5.2 rule verbatim:
	//   Event:     Query.Commit
	//   Condition: Query.Duration > 5 * Duration_LAT.Avg_Duration
	//   Action:    Query.Persist(TableName, Query_Text)
	src, err := rulesets.FS.ReadFile("outliers.rules")
	if err != nil {
		log.Fatal(err)
	}
	if err := db.LoadRuleSet(string(src)); err != nil {
		log.Fatal(err)
	}

	// Normal traffic: small reports.
	for i := 0; i < 200; i++ {
		mustExec(sess, fmt.Sprintf("EXEC order_report %d, %d", i*10+1, i*10+20))
	}
	db.Flush(2 * time.Second)
	before, _ := db.ReadTable("outliers") // the table is created by the first outlier
	// A problematic parameter combination: a full-table report. Its one
	// statement is the only one that runs between the two reads.
	mustExec(sess, "EXEC order_report 1, 5000")

	db.Flush(2 * time.Second) // actions run async; quiesce before reading
	rows, err := db.ReadTable("outliers")
	if err != nil {
		log.Fatal("no outliers table:", err)
	}
	fmt.Printf("detected %d outlier invocation(s):\n", len(rows))
	for _, r := range rows {
		fmt.Printf("  query #%d ran %.3fms: %.60s\n", r[0].Int(), r[2].Float()*1e3, r[1].Str())
	}
	mailer := db.Monitor().Mailer().(*sqlcm.MemMailer)
	for _, m := range mailer.Sent() {
		fmt.Printf("mail to %s: %s\n", m.Addr, m.Body)
	}
	if len(rows) == len(before) {
		log.Fatal("EXEC order_report 1, 5000 is not among the persisted outliers")
	}
}

func mustExec(sess *sqlcm.Session, sql string) {
	if _, err := sess.Exec(sql, nil); err != nil {
		log.Fatalf("%s: %v", sql, err)
	}
}
