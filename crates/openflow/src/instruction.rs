//! OpenFlow 1.3 instructions (§7.2.4).

use bytes::{Buf, BufMut, BytesMut};

use crate::action::Action;
use crate::{Error, Result};

/// An instruction attached to a flow entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Continue matching in a later table.
    GotoTable(u8),
    /// Update the pipeline metadata register:
    /// `metadata = (metadata & !mask) | (value & mask)`.
    WriteMetadata {
        /// New metadata bits.
        metadata: u64,
        /// Which bits to write.
        mask: u64,
    },
    /// Merge actions into the action set.
    WriteActions(Vec<Action>),
    /// Execute actions immediately, in order.
    ApplyActions(Vec<Action>),
    /// Empty the action set.
    ClearActions,
    /// Send the packet through a meter first.
    Meter(u32),
}

impl Instruction {
    /// Encoded length (already 8-byte aligned).
    pub fn encoded_len(&self) -> usize {
        match self {
            Instruction::GotoTable(_) => 8,
            Instruction::WriteMetadata { .. } => 24,
            Instruction::WriteActions(a) | Instruction::ApplyActions(a) => 8 + Action::list_len(a),
            Instruction::ClearActions => 8,
            Instruction::Meter(_) => 8,
        }
    }

    /// Append the wire form to `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        match self {
            Instruction::GotoTable(t) => {
                out.put_u16(1);
                out.put_u16(8);
                out.put_u8(*t);
                out.put_bytes(0, 3);
            }
            Instruction::WriteMetadata { metadata, mask } => {
                out.put_u16(2);
                out.put_u16(24);
                out.put_bytes(0, 4);
                out.put_u64(*metadata);
                out.put_u64(*mask);
            }
            Instruction::WriteActions(actions) => {
                out.put_u16(3);
                out.put_u16(self.encoded_len() as u16);
                out.put_bytes(0, 4);
                Action::encode_list(actions, out);
            }
            Instruction::ApplyActions(actions) => {
                out.put_u16(4);
                out.put_u16(self.encoded_len() as u16);
                out.put_bytes(0, 4);
                Action::encode_list(actions, out);
            }
            Instruction::ClearActions => {
                out.put_u16(5);
                out.put_u16(8);
                out.put_bytes(0, 4);
            }
            Instruction::Meter(id) => {
                out.put_u16(6);
                out.put_u16(8);
                out.put_u32(*id);
            }
        }
    }

    /// Decode one instruction from the front of `buf`.
    pub fn decode(buf: &mut &[u8]) -> Result<Instruction> {
        if buf.len() < 4 {
            return Err(Error::Truncated);
        }
        let ty = buf.get_u16();
        let len = usize::from(buf.get_u16());
        if len < 8 {
            return Err(Error::Malformed("instruction too short"));
        }
        let body_len = len - 4;
        if buf.len() < body_len {
            return Err(Error::Truncated);
        }
        let mut body = &buf[..body_len];
        let insn = match ty {
            1 => {
                if body.len() < 4 {
                    return Err(Error::Truncated);
                }
                Instruction::GotoTable(body.get_u8())
            }
            2 => {
                if body.len() < 20 {
                    return Err(Error::Truncated);
                }
                body.advance(4);
                let metadata = body.get_u64();
                let mask = body.get_u64();
                Instruction::WriteMetadata { metadata, mask }
            }
            3 | 4 => {
                if body.len() < 4 {
                    return Err(Error::Truncated);
                }
                body.advance(4);
                let actions_len = body.len();
                let actions = Action::decode_list(&mut body, actions_len)?;
                if ty == 3 {
                    Instruction::WriteActions(actions)
                } else {
                    Instruction::ApplyActions(actions)
                }
            }
            5 => Instruction::ClearActions,
            6 => {
                if body.len() < 4 {
                    return Err(Error::Truncated);
                }
                Instruction::Meter(body.get_u32())
            }
            _ => return Err(Error::Malformed("unknown instruction type")),
        };
        buf.advance(body_len);
        Ok(insn)
    }

    /// Encode a list of instructions.
    pub fn encode_list(insns: &[Instruction], out: &mut BytesMut) {
        for i in insns {
            i.encode(out);
        }
    }

    /// Total encoded length of a list.
    pub fn list_len(insns: &[Instruction]) -> usize {
        insns.iter().map(Instruction::encoded_len).sum()
    }

    /// Decode exactly `len` bytes of instructions.
    pub fn decode_list(buf: &mut &[u8], len: usize) -> Result<Vec<Instruction>> {
        if buf.len() < len {
            return Err(Error::Truncated);
        }
        let mut body = &buf[..len];
        let tlv_len = |h: &[u8]| usize::from(u16::from_be_bytes([h[2], h[3]]));
        let mut out = Vec::with_capacity(crate::tlv_count(body, tlv_len));
        while !body.is_empty() {
            out.push(Instruction::decode(&mut body)?);
        }
        buf.advance(len);
        Ok(out)
    }

    /// Convenience: a single apply-actions instruction.
    pub fn apply(actions: Vec<Action>) -> Vec<Instruction> {
        vec![Instruction::ApplyActions(actions)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(i: &Instruction) -> Instruction {
        let mut buf = BytesMut::new();
        i.encode(&mut buf);
        assert_eq!(buf.len(), i.encoded_len());
        let mut s = &buf[..];
        let out = Instruction::decode(&mut s).unwrap();
        assert!(s.is_empty());
        out
    }

    #[test]
    fn all_instructions_round_trip() {
        for i in [
            Instruction::GotoTable(3),
            Instruction::WriteMetadata {
                metadata: 0xdead,
                mask: 0xffff,
            },
            Instruction::WriteActions(vec![Action::output(1)]),
            Instruction::ApplyActions(vec![Action::PopVlan, Action::output(2)]),
            Instruction::ApplyActions(vec![]),
            Instruction::ClearActions,
            Instruction::Meter(7),
        ] {
            assert_eq!(round_trip(&i), i);
        }
    }

    #[test]
    fn list_round_trip() {
        let list = vec![
            Instruction::ApplyActions(vec![Action::set_vlan_vid(101)]),
            Instruction::GotoTable(1),
        ];
        let mut buf = BytesMut::new();
        Instruction::encode_list(&list, &mut buf);
        let mut s = &buf[..];
        assert_eq!(Instruction::decode_list(&mut s, buf.len()).unwrap(), list);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(99);
        buf.put_u16(8);
        buf.put_u32(0);
        let mut s = &buf[..];
        assert!(Instruction::decode(&mut s).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let mut s = &[0u8, 2, 0, 24, 0][..];
        assert_eq!(Instruction::decode(&mut s).unwrap_err(), Error::Truncated);
    }
}
