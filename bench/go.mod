module citymesh/bench

go 1.22

require citymesh v0.0.0

replace citymesh => ../
