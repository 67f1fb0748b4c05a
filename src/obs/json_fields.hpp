// Named-field JSON mapping: a record type declares its named fields once and
// this header derives its JSON writer and reader from that one list. It is
// the JSON sibling of util/wire_codec.hpp, which does the same for the
// binary wire form (that codec has no field names; the two stay separate).
//
//   struct MsgRecv {
//     static constexpr const char* kType = "msg_recv";  // variant tag
//     ProcessId p;
//     ...
//     template <class S, class V>
//     static void json_fields(S& s, V& v) {
//       v("p", s.p)("from", s.from)("sender", s.sender)("uid", s.uid)
//        ("fwd", s.forwarded);
//     }
//   };
//
//   obs::to_json(x)        a JSON object holding every field in list order;
//   obs::from_json(j, &x)  reads every field of the list back into x in
//                          place (fields outside the list keep their
//                          values); false on any mismatch, and x may then
//                          be partly written.
//
// A field listed as v(name, field, present) is optional: it is written and
// required only when `present` holds. Each call in the chain is sequenced
// before the next call's arguments, so `present` may test a field that the
// same list read earlier (FaultOp tests its kind this way).
//
// A field listed as v(name, body) with body a std::variant of described
// types that each declare kType is flattened into the enclosing object:
// `name` holds the alternative's kType and its fields follow. Reading
// dispatches on that name.
//
// The reader rule, the same for every record:
//   * every listed field must be present, with the right JSON kind;
//   * 32-bit and int fields reject values outside their range;
//   * 64-bit fields take any JSON integer: the writer stores uint64 as its
//     two's-complement int64, and the reader casts it back;
//   * enum fields map through the name table that enum_names(E) returns
//     (found by argument-dependent lookup; rows carry .value and .name) and
//     reject unknown names;
//   * keys outside the list are ignored;
//   * no exception escapes a reader.
//
// Field mappings (JsonField<T> below): integers as JSON integers, doubles as
// JSON numbers (an integer is accepted), bool, string, ProcessId and
// StartChangeId as their integer value, std::set, std::vector and
// util::SharedArray as arrays, std::map<ProcessId, V> and a SharedArray of
// (ProcessId, V) pairs as an object keyed by the decimal pid, a described
// struct as a nested object.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "obs/json.hpp"
#include "util/ids.hpp"
#include "util/shared_array.hpp"

namespace vsgc::obs {

namespace detail {
/// Stands in for the visitor when testing whether T declares json_fields().
struct AnyVisitor {
  template <class... F>
  AnyVisitor& operator()(F&&...) {
    return *this;
  }
};
}  // namespace detail

template <class T>
concept JsonDescribed = requires(T& t, detail::AnyVisitor& v) {
  T::json_fields(t, v);
};

/// JSON mapping of one field type: put builds the value, get checks and
/// reads it.
template <class T>
struct JsonField;

template <class T>
  requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
struct JsonField<T> {
  static JsonValue put(T v) { return JsonValue(v); }
  static bool get(const JsonValue& j, T* out) {
    if (!j.is_int()) return false;
    const std::int64_t v = j.as_int();
    if constexpr (sizeof(T) == sizeof(std::int64_t)) {
      *out = static_cast<T>(v);  // two's complement: uint64 round-trips
    } else {
      if (!std::in_range<T>(v)) return false;
      *out = static_cast<T>(v);
    }
    return true;
  }
};

template <>
struct JsonField<bool> {
  static JsonValue put(bool v) { return JsonValue(v); }
  static bool get(const JsonValue& j, bool* out) {
    if (!j.is_bool()) return false;
    *out = j.as_bool();
    return true;
  }
};

template <>
struct JsonField<double> {
  static JsonValue put(double v) { return JsonValue(v); }
  static bool get(const JsonValue& j, double* out) {
    if (!j.is_number()) return false;
    *out = j.as_double();
    return true;
  }
};

template <>
struct JsonField<std::string> {
  static JsonValue put(const std::string& v) { return JsonValue(v); }
  static bool get(const JsonValue& j, std::string* out) {
    if (!j.is_string()) return false;
    *out = j.as_string();
    return true;
  }
};

/// The id types (ProcessId, StartChangeId, ...): their integer value.
template <class T>
  requires std::is_class_v<T> && std::is_integral_v<decltype(T::value)>
struct JsonField<T> {
  static JsonValue put(T id) { return JsonValue(id.value); }
  static bool get(const JsonValue& j, T* out) {
    return JsonField<decltype(T::value)>::get(j, &out->value);
  }
};

template <class E>
  requires std::is_enum_v<E>
struct JsonField<E> {
  static JsonValue put(E e) {
    for (const auto& row : enum_names(e)) {
      if (row.value == e) return JsonValue(row.name);
    }
    return JsonValue();
  }
  static bool get(const JsonValue& j, E* out) {
    if (!j.is_string()) return false;
    for (const auto& row : enum_names(*out)) {
      if (j.as_string() == row.name) {
        *out = row.value;
        return true;
      }
    }
    return false;
  }
};

/// Shared by the array-shaped containers: one element per item, in order.
template <class C, class T>
struct JsonArray {
  static JsonValue put(const C& c) {
    JsonValue out = JsonValue::array();
    for (const T& x : c) out.push_back(JsonField<T>::put(x));
    return out;
  }
  static bool get(const JsonValue& j, C* out) {
    if (!j.is_array()) return false;
    out->clear();
    for (const JsonValue& item : j.items()) {
      T x{};
      if (!JsonField<T>::get(item, &x)) return false;
      out->insert(out->end(), std::move(x));
    }
    return true;
  }
};

template <class T>
struct JsonField<std::vector<T>> : JsonArray<std::vector<T>, T> {};

template <class T>
struct JsonField<std::set<T>> : JsonArray<std::set<T>, T> {};

template <class V>
struct JsonField<std::map<ProcessId, V>> {
  static JsonValue put(const std::map<ProcessId, V>& m) {
    JsonValue out = JsonValue::object();
    for (const auto& [p, v] : m) {
      out[std::to_string(p.value)] = JsonField<V>::put(v);
    }
    return out;
  }
  static bool get(const JsonValue& j, std::map<ProcessId, V>* out) {
    if (!j.is_object()) return false;
    out->clear();
    for (const auto& [key, item] : j.members()) {
      ProcessId p;
      const char* end = key.data() + key.size();
      const auto res = std::from_chars(key.data(), end, p.value);
      if (key.empty() || res.ec != std::errc() || res.ptr != end) {
        return false;
      }
      V v{};
      if (!JsonField<V>::get(item, &v)) return false;
      (*out)[p] = std::move(v);
    }
    return true;
  }
};

/// A shared flat body is written as the container it stands for: an array,
/// or, for (ProcessId, V) pairs, an object keyed by the decimal pid. Only
/// writers see one: the types holding a body read the plain container and
/// build the body from it.
template <class T>
struct JsonField<util::SharedArray<T>> {
  static JsonValue put(const util::SharedArray<T>& a) {
    return JsonArray<util::SharedArray<T>, T>::put(a);
  }
};

template <class V>
struct JsonField<util::SharedArray<std::pair<ProcessId, V>>> {
  static JsonValue put(const util::SharedArray<std::pair<ProcessId, V>>& a) {
    JsonValue out = JsonValue::object();
    for (const auto& [p, v] : a) {
      out[std::to_string(p.value)] = JsonField<V>::put(v);
    }
    return out;
  }
};

namespace detail {

template <class T>
concept TypeTagged = JsonDescribed<T> && requires { T::kType; };

/// Visits a field list and writes each field into one JSON object.
struct JsonWriter {
  JsonValue* obj;

  template <class F>
  JsonWriter& operator()(const char* name, const F& f, bool present = true) {
    if (present) (*obj)[name] = JsonField<F>::put(f);
    return *this;
  }

  template <TypeTagged... Ts>
  JsonWriter& operator()(const char* name, const std::variant<Ts...>& body) {
    std::visit(
        [&](const auto& alt) {
          (*obj)[name] = alt.kType;
          std::remove_cvref_t<decltype(alt)>::json_fields(alt, *this);
        },
        body);
    return *this;
  }
};

/// Visits a field list and reads each field out of one JSON object; the
/// first failure sticks and skips the rest of the list.
struct JsonReader {
  const JsonValue* obj;
  bool ok = true;

  template <class F>
  JsonReader& operator()(const char* name, F& f, bool present = true) {
    if (!ok || !present) return *this;
    const JsonValue* j = obj->find(name);
    ok = j != nullptr && JsonField<F>::get(*j, &f);
    return *this;
  }

  template <TypeTagged... Ts>
  JsonReader& operator()(const char* name, std::variant<Ts...>& body) {
    if (!ok) return *this;
    const JsonValue* tag = obj->find(name);
    bool matched = false;
    if (tag != nullptr && tag->is_string()) {
      const auto try_alt = [&]<class T>(T*) {
        if (matched || tag->as_string() != T::kType) return;
        matched = true;
        T alt{};
        T::json_fields(alt, *this);
        body = std::move(alt);
      };
      (try_alt(static_cast<Ts*>(nullptr)), ...);
    }
    ok = ok && matched;
    return *this;
  }
};

}  // namespace detail

template <JsonDescribed T>
struct JsonField<T> {
  static JsonValue put(const T& x) {
    JsonValue out = JsonValue::object();
    detail::JsonWriter w{&out};
    T::json_fields(x, w);
    return out;
  }
  static bool get(const JsonValue& j, T* out) {
    if (!j.is_object()) return false;
    detail::JsonReader r{&j};
    T::json_fields(*out, r);
    return r.ok;
  }
};

template <JsonDescribed T>
JsonValue to_json(const T& x) {
  return JsonField<T>::put(x);
}

template <JsonDescribed T>
bool from_json(const JsonValue& j, T* out) {
  return JsonField<T>::get(j, out);
}

}  // namespace vsgc::obs
