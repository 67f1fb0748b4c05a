// Field-list codec: a wire struct declares its fields once and this header
// derives its encoder, decoder and encoded size from that one list.
//
//   struct FwdMsg {
//     static constexpr Tag kTag = Tag::kFwdMsg;  // optional: leading tag byte
//     ProcessId orig{};
//     ...
//     template <class S, class V>
//     static void fields(S& s, V& v) { v(s.orig, s.view, s.index, s.msg); }
//   };
//
//   codec::encode(x, enc)  the tag byte (if kTag), then every field in order;
//   codec::decode<T>(dec)  reads and checks the tag, every field, then runs
//                          x.validate() when T declares one (a hook that
//                          throws DecodeError on a well-formed but illegal
//                          value);
//   codec::wire_size(x)    the exact encoded length, computed without
//                          encoding or allocating.
//
// Field encodings (Field<T> below): integers little-endian at their width,
// bool as one byte, the id types as their integer parts, strings and
// containers (util::SharedArray included) as a u32 count then the elements
// in container order. A field
// that is itself a described struct nests its own encoding, tag byte
// included, and the decoder checks that tag too. Set elements and map keys
// decode only in strictly ascending order, the order the encoder writes, so
// a decoded message always re-encodes to the bytes it came from.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/ids.hpp"
#include "util/serialization.hpp"
#include "util/shared_array.hpp"

namespace vsgc::codec {

namespace detail {
/// Stands in for the visitor when testing whether T declares fields().
struct AnyVisitor {
  template <class... F>
  void operator()(F&...) const {}
};
}  // namespace detail

template <class T>
concept Described = requires(T& t, detail::AnyVisitor& v) {
  T::fields(t, v);
};

template <class T>
concept Tagged = requires { T::kTag; };

template <class T>
concept Validated = requires(const T& t) { t.validate(); };

/// Encoding of one field type: put, get and size side by side.
template <class T>
struct Field;

template <class T>
using FieldOf = Field<std::remove_cvref_t<T>>;

/// A fixed-width field written and read by one Encoder/Decoder primitive.
template <class T, void (Encoder::*Put)(T), T (Decoder::*Get)(), std::size_t N>
struct Scalar {
  static void put(Encoder& e, T v) { (e.*Put)(v); }
  static T get(Decoder& d) { return (d.*Get)(); }
  static constexpr std::size_t size(const T&) { return N; }
};

template <>
struct Field<std::uint8_t>
    : Scalar<std::uint8_t, &Encoder::put_u8, &Decoder::get_u8, 1> {};
template <>
struct Field<std::uint32_t>
    : Scalar<std::uint32_t, &Encoder::put_u32, &Decoder::get_u32, 4> {};
template <>
struct Field<std::uint64_t>
    : Scalar<std::uint64_t, &Encoder::put_u64, &Decoder::get_u64, 8> {};
template <>
struct Field<std::int64_t>
    : Scalar<std::int64_t, &Encoder::put_i64, &Decoder::get_i64, 8> {};
template <>
struct Field<ProcessId>
    : Scalar<ProcessId, &Encoder::put_process, &Decoder::get_process, 4> {};
template <>
struct Field<StartChangeId>
    : Scalar<StartChangeId, &Encoder::put_start_change_id,
             &Decoder::get_start_change_id, 8> {};
template <>
struct Field<ViewId>
    : Scalar<ViewId, &Encoder::put_view_id, &Decoder::get_view_id, 12> {};

template <>
struct Field<bool> {
  static void put(Encoder& e, bool v) { e.put_u8(v ? 1 : 0); }
  static bool get(Decoder& d) { return d.get_u8() != 0; }
  static constexpr std::size_t size(bool) { return 1; }
};

template <>
struct Field<ServerId> {
  static void put(Encoder& e, ServerId v) { e.put_u32(v.value); }
  static ServerId get(Decoder& d) { return ServerId{d.get_u32()}; }
  static constexpr std::size_t size(ServerId) { return 4; }
};

template <>
struct Field<std::string> {
  static void put(Encoder& e, const std::string& s) { e.put_string(s); }
  static std::string get(Decoder& d) { return d.get_string(); }
  static std::size_t size(const std::string& s) { return 4 + s.size(); }
};

/// Shared by the containers: u32 count, then each element.
template <class C>
struct Sequence {
  static void put(Encoder& e, const C& c) {
    e.put_u32(static_cast<std::uint32_t>(c.size()));
    for (const auto& x : c) FieldOf<decltype(x)>::put(e, x);
  }
  static std::size_t size(const C& c) {
    std::size_t n = 4;
    for (const auto& x : c) n += FieldOf<decltype(x)>::size(x);
    return n;
  }
};

/// Throws unless `next` sorts strictly after the last key decoded before it.
template <class K>
void require_ascending(const K* last, const K& next) {
  if (last != nullptr && !(*last < next)) {
    throw DecodeError("container keys not strictly ascending");
  }
}

template <class T>
struct Field<std::set<T>> : Sequence<std::set<T>> {
  static std::set<T> get(Decoder& d) {
    std::set<T> s;
    for (std::uint32_t n = d.get_u32(); n > 0; --n) {
      T x = Field<T>::get(d);
      require_ascending(s.empty() ? nullptr : &*s.rbegin(), x);
      s.insert(s.end(), std::move(x));
    }
    return s;
  }
};

/// A map or vector element. Map elements have a const key, hence FieldOf.
template <class A, class B>
struct Field<std::pair<A, B>> {
  static void put(Encoder& e, const std::pair<A, B>& p) {
    FieldOf<A>::put(e, p.first);
    FieldOf<B>::put(e, p.second);
  }
  static std::pair<A, B> get(Decoder& d) {
    // A braced list evaluates left to right: first is read before second.
    return {FieldOf<A>::get(d), FieldOf<B>::get(d)};
  }
  static std::size_t size(const std::pair<A, B>& p) {
    return FieldOf<A>::size(p.first) + FieldOf<B>::size(p.second);
  }
};

template <class K, class V>
struct Field<std::map<K, V>> : Sequence<std::map<K, V>> {
  static std::map<K, V> get(Decoder& d) {
    std::map<K, V> m;
    for (std::uint32_t n = d.get_u32(); n > 0; --n) {
      auto [k, v] = Field<std::pair<K, V>>::get(d);
      require_ascending(m.empty() ? nullptr : &m.rbegin()->first, k);
      m.emplace_hint(m.end(), std::move(k), std::move(v));
    }
    return m;
  }
};

template <class A, class B>
struct Field<std::vector<std::pair<A, B>>>
    : Sequence<std::vector<std::pair<A, B>>> {
  static std::vector<std::pair<A, B>> get(Decoder& d) {
    std::vector<std::pair<A, B>> out;
    for (std::uint32_t n = d.get_u32(); n > 0; --n) {
      out.push_back(Field<std::pair<A, B>>::get(d));
    }
    return out;
  }
};

/// A shared flat body (a view's start ids, a cut): it encodes as the
/// container it stands for. Its elements decode in the order they come; the
/// type that holds the body checks that order (validate()).
template <class T>
struct Field<util::SharedArray<T>> : Sequence<util::SharedArray<T>> {
  static util::SharedArray<T> get(Decoder& d) {
    std::vector<T> items;
    for (std::uint32_t n = d.get_u32(); n > 0; --n) {
      items.push_back(Field<T>::get(d));
    }
    return util::SharedArray<T>(items.begin(), items.end());
  }
};

template <Described T>
struct Field<T> {
  static void put(Encoder& e, const T& x) {
    if constexpr (Tagged<T>) e.put_u8(static_cast<std::uint8_t>(T::kTag));
    auto write = [&e](const auto&... f) {
      (FieldOf<decltype(f)>::put(e, f), ...);
    };
    T::fields(x, write);
  }

  static T get(Decoder& d) {
    if constexpr (Tagged<T>) {
      if (d.get_u8() != static_cast<std::uint8_t>(T::kTag)) {
        throw DecodeError("unexpected wire tag");
      }
    }
    T x;
    auto read = [&d](auto&... f) {
      ((f = FieldOf<decltype(f)>::get(d)), ...);
    };
    T::fields(x, read);
    if constexpr (Validated<T>) x.validate();
    return x;
  }

  static std::size_t size(const T& x) {
    std::size_t n = Tagged<T> ? 1 : 0;
    auto add = [&n](const auto&... f) {
      ((n += FieldOf<decltype(f)>::size(f)), ...);
    };
    T::fields(x, add);
    return n;
  }
};

template <Described T>
void encode(const T& x, Encoder& enc) {
  Field<T>::put(enc, x);
}

template <Described T>
T decode(Decoder& dec) {
  return Field<T>::get(dec);
}

template <Described T>
std::size_t wire_size(const T& x) {
  return Field<T>::size(x);
}

}  // namespace vsgc::codec
