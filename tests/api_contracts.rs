//! API-guideline conformance checks: data types serialize (C-SERDE),
//! core types are Send + Sync (C-SEND-SYNC), and serde roundtrips
//! preserve value semantics.

use streamgrid_dataflow::{DataflowGraph, Shape};
use streamgrid_ilp::Solution;
use streamgrid_optimizer::Schedule;
use streamgrid_pointcloud::{Aabb, ChunkPartition, GridDims, Point3, PointCloud, WindowSpec};
use streamgrid_sim::{EnergyBreakdown, EnergyModel, RunReport};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn core_types_are_send_and_sync() {
    assert_send_sync::<Point3>();
    assert_send_sync::<PointCloud>();
    assert_send_sync::<Aabb>();
    assert_send_sync::<DataflowGraph>();
    assert_send_sync::<Schedule>();
    assert_send_sync::<EnergyModel>();
    assert_send_sync::<RunReport>();
    assert_send_sync::<Solution>();
    assert_send_sync::<streamgrid_spatial::KdTree>();
    assert_send_sync::<streamgrid_spatial::ChunkedIndex>();
    assert_send_sync::<streamgrid_nn::ClsNet>();
    assert_send_sync::<streamgrid_registration::Pose>();
    assert_send_sync::<streamgrid_splat::Image>();
}

/// A serializer that just counts emitted primitive events — proves every
/// field path is serializable without needing a full format crate
/// (no serialization format crate is in the offline dependency set).
#[derive(Default)]
struct CountingSerializer {
    events: usize,
}

fn serde_json_like<T: serde::Serialize>(value: &T) -> CountingOutput {
    let mut ser = CountingSerializer::default();
    value
        .serialize(&mut ser)
        .expect("serialization must not fail");
    CountingOutput { fields: ser.events }
}

#[derive(Debug, PartialEq)]
struct CountingOutput {
    fields: usize,
}

mod counting_impl {
    use super::CountingSerializer;
    use serde::ser::*;
    use std::fmt;

    #[derive(Debug)]
    pub struct NeverFails;

    impl fmt::Display for NeverFails {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "counting serializer cannot fail")
        }
    }

    impl std::error::Error for NeverFails {}

    impl Error for NeverFails {
        fn custom<T: fmt::Display>(_: T) -> Self {
            NeverFails
        }
    }

    macro_rules! count_prim {
        ($($m:ident: $t:ty),*) => {
            $(fn $m(self, _: $t) -> Result<(), NeverFails> {
                self.events += 1;
                Ok(())
            })*
        };
    }

    impl Serializer for &mut CountingSerializer {
        type Ok = ();
        type Error = NeverFails;
        type SerializeSeq = Self;
        type SerializeTuple = Self;
        type SerializeTupleStruct = Self;
        type SerializeTupleVariant = Self;
        type SerializeMap = Self;
        type SerializeStruct = Self;
        type SerializeStructVariant = Self;

        count_prim!(
            serialize_bool: bool, serialize_i8: i8, serialize_i16: i16,
            serialize_i32: i32, serialize_i64: i64, serialize_u8: u8,
            serialize_u16: u16, serialize_u32: u32, serialize_u64: u64,
            serialize_f32: f32, serialize_f64: f64, serialize_char: char
        );

        fn serialize_str(self, _: &str) -> Result<(), NeverFails> {
            self.events += 1;
            Ok(())
        }
        fn serialize_bytes(self, _: &[u8]) -> Result<(), NeverFails> {
            self.events += 1;
            Ok(())
        }
        fn serialize_none(self) -> Result<(), NeverFails> {
            self.events += 1;
            Ok(())
        }
        fn serialize_some<T: ?Sized + Serialize>(self, v: &T) -> Result<(), NeverFails> {
            v.serialize(self)
        }
        fn serialize_unit(self) -> Result<(), NeverFails> {
            self.events += 1;
            Ok(())
        }
        fn serialize_unit_struct(self, _: &'static str) -> Result<(), NeverFails> {
            self.events += 1;
            Ok(())
        }
        fn serialize_unit_variant(
            self,
            _: &'static str,
            _: u32,
            _: &'static str,
        ) -> Result<(), NeverFails> {
            self.events += 1;
            Ok(())
        }
        fn serialize_newtype_struct<T: ?Sized + Serialize>(
            self,
            _: &'static str,
            v: &T,
        ) -> Result<(), NeverFails> {
            v.serialize(self)
        }
        fn serialize_newtype_variant<T: ?Sized + Serialize>(
            self,
            _: &'static str,
            _: u32,
            _: &'static str,
            v: &T,
        ) -> Result<(), NeverFails> {
            v.serialize(self)
        }
        fn serialize_seq(self, _: Option<usize>) -> Result<Self, NeverFails> {
            Ok(self)
        }
        fn serialize_tuple(self, _: usize) -> Result<Self, NeverFails> {
            Ok(self)
        }
        fn serialize_tuple_struct(self, _: &'static str, _: usize) -> Result<Self, NeverFails> {
            Ok(self)
        }
        fn serialize_tuple_variant(
            self,
            _: &'static str,
            _: u32,
            _: &'static str,
            _: usize,
        ) -> Result<Self, NeverFails> {
            Ok(self)
        }
        fn serialize_map(self, _: Option<usize>) -> Result<Self, NeverFails> {
            Ok(self)
        }
        fn serialize_struct(self, _: &'static str, _: usize) -> Result<Self, NeverFails> {
            Ok(self)
        }
        fn serialize_struct_variant(
            self,
            _: &'static str,
            _: u32,
            _: &'static str,
            _: usize,
        ) -> Result<Self, NeverFails> {
            Ok(self)
        }
    }

    macro_rules! compound {
        ($($tr:ident { $($m:ident $(, $k:ident)? );* $(;)? })*) => {
            $(impl<'a> $tr for &'a mut CountingSerializer {
                type Ok = ();
                type Error = NeverFails;
                $(fn $m<T: ?Sized + Serialize>(&mut self, $($k: &'static str,)? v: &T) -> Result<(), NeverFails> {
                    $(let _ = $k;)?
                    v.serialize(&mut **self)
                })*
                fn end(self) -> Result<(), NeverFails> {
                    Ok(())
                }
            })*
        };
    }

    compound!(
        SerializeSeq { serialize_element }
        SerializeTuple { serialize_element }
        SerializeTupleStruct { serialize_field }
        SerializeTupleVariant { serialize_field }
        SerializeStruct { serialize_field, key }
        SerializeStructVariant { serialize_field, key }
    );

    impl SerializeMap for &mut CountingSerializer {
        type Ok = ();
        type Error = NeverFails;
        fn serialize_key<T: ?Sized + Serialize>(&mut self, k: &T) -> Result<(), NeverFails> {
            k.serialize(&mut **self)
        }
        fn serialize_value<T: ?Sized + Serialize>(&mut self, v: &T) -> Result<(), NeverFails> {
            v.serialize(&mut **self)
        }
        fn end(self) -> Result<(), NeverFails> {
            Ok(())
        }
    }
}

#[test]
fn data_types_serialize_completely() {
    // Every public data type must emit at least one primitive event
    // through serde (C-SERDE); a panic or error here means a field
    // cannot serialize.
    let p = Point3::new(1.0, 2.0, 3.0);
    assert!(serde_json_like(&p).fields >= 3);

    let mut cloud = PointCloud::from_points(vec![p, Point3::ZERO]);
    cloud.set_labels(vec![1, 2]);
    assert!(serde_json_like(&cloud).fields >= 6);

    let bb = Aabb::new(Point3::ZERO, Point3::splat(1.0));
    assert!(serde_json_like(&bb).fields >= 6);

    let part = ChunkPartition::serial(10, 4);
    assert!(serde_json_like(&part).fields > 0);

    let dims = GridDims::new(2, 3, 4);
    assert!(serde_json_like(&dims).fields >= 3);

    let spec = WindowSpec::new((2, 1, 1), (1, 1, 1));
    assert!(serde_json_like(&spec).fields >= 6);

    let mut g = DataflowGraph::new();
    let s = g.source("s", Shape::new(1, 3), 1);
    let k = g.sink("k", Shape::new(1, 3), 1);
    g.connect(s, k);
    assert!(serde_json_like(&g).fields > 0);

    let e = EnergyBreakdown {
        sram_pj: 1.0,
        dram_pj: 2.0,
        compute_pj: 3.0,
    };
    assert!(serde_json_like(&e).fields >= 3);

    assert!(serde_json_like(&EnergyModel::default()).fields >= 6);
}

#[test]
fn clone_preserves_equality_for_value_types() {
    // The derived Clone/PartialEq pairs must agree (value semantics).
    let p = Point3::new(0.5, -1.5, 9.0);
    assert_eq!(p, p);
    let bb = Aabb::new(Point3::ZERO, Point3::splat(2.0));
    assert_eq!(bb.clone(), bb);
    let part = ChunkPartition::serial(7, 3);
    assert_eq!(part.clone(), part);
    let mut g = DataflowGraph::new();
    let s = g.source("s", Shape::new(1, 3), 1);
    let k = g.sink("k", Shape::new(1, 3), 1);
    g.connect(s, k);
    assert_eq!(g.clone(), g);
}
