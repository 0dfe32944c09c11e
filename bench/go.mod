module sqlcm/bench

go 1.22

require sqlcm v0.0.0

replace sqlcm => ../
