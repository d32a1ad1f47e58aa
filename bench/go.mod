module past/bench

go 1.24

require past v0.0.0

replace past => ../
