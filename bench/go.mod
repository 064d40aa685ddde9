module terradir/bench

go 1.22

require terradir v0.0.0

replace terradir => ../
