module samrpart/bench

go 1.22

require samrpart v0.0.0

replace samrpart => ../
