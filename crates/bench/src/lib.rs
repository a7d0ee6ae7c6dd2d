//! The paper's table/figure regeneration harness and the AVF and campaign
//! speed gates live in `benches/`.
